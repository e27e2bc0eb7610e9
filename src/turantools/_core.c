/* Compiled bitset kernels: canonical labeling, subgraph containment and
 * the augmentation step's verdicts; enumeration._emit keeps the classes.
 *
 * Mirror of turantools._core_py (same functions, same semantics, same
 * deterministic choices); the test suite asserts byte parity between the
 * two.  Graphs are (n, adj) with one 64-bit word per vertex: bit v of
 * adj[u] is set iff uv is an edge.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdlib.h>
#include <string.h>

typedef unsigned long long u64;

#define MAXN 64
#define MAXBYTES 252 /* 64*63/2 bits packed */

static inline int popcount(u64 x) { return __builtin_popcountll(x); }
static inline int lowbit(u64 x) { return __builtin_ctzll(x); }
static inline u64 bit(int i) { return (u64)1 << i; }
static inline u64 full_mask(int n) { return n < 64 ? bit(n) - 1 : ~(u64)0; }

/* ------------------------------------------------------------------------
 * canonical labeling: individualization/refinement with automorphism
 * pruning.  A partition is (lab, ptn): lab lists the vertices cell by
 * cell, ptn[k] is nonzero iff lab[k] and lab[k+1] share a cell.
 * ---------------------------------------------------------------------- */

typedef struct {
    int n;
    int nbytes;
    u64 adj[MAXN];
    unsigned char best[MAXBYTES];
    int best_order[MAXN];
    int have_best;
    int *gens; /* ngens automorphisms of n ints, vertex -> vertex: seeded
                * twin transpositions, then those found at leaves */
    int ngens, maxgens;
    int nomem; /* growing gens failed: the search unwinds */
    int prefix[MAXN]; /* vertices individualized on the current path */
    int depth;
} CanonState;

/* Pack the upper triangle of the reordered adjacency matrix: pairs
 * (0,1), (0,2), (1,2), (0,3), ... MSB first, trailing bits zero. */
static void pack_triangle(int n, const u64 *adj, const int *order,
                          unsigned char *out, int nbytes)
{
    int t = 0;
    memset(out, 0, nbytes);
    for (int j = 1; j < n; j++) {
        u64 aj = adj[order[j]];
        for (int i = 0; i < j; i++, t++)
            if ((aj >> order[i]) & 1)
                out[t >> 3] |= (unsigned char)(0x80 >> (t & 7));
    }
}

/* Split the cell lab[a..b] by neighbor count into smask: subcells by
 * ascending count, old order kept inside each.  Returns 1 iff it split. */
static int split_cell(const u64 *adj, int *lab, char *ptn, int a, int b, u64 smask)
{
    int cnt[MAXN], tmp[MAXN];
    int lo = MAXN, hi = 0, pos = a;
    for (int k = a; k <= b; k++) {
        int c = cnt[k] = popcount(adj[lab[k]] & smask);
        lo = c < lo ? c : lo;
        hi = c > hi ? c : hi;
    }
    if (lo == hi)
        return 0;
    /* count lo is never empty, so pos > a below, and an empty count
     * closes the sub-cell already closed */
    for (int c = lo; c <= hi; c++) {
        for (int k = a; k <= b; k++)
            if (cnt[k] == c) {
                tmp[pos] = lab[k];
                ptn[pos++] = 1;
            }
        ptn[pos - 1] = 0;
    }
    memcpy(lab + a, tmp + a, (size_t)(b - a + 1) * sizeof(int));
    return 1;
}

/* Coarsest equitable refinement: splitter cell s splits every cell, then
 * s goes back to the first cell after a split and on to the next cell
 * otherwise (see the docstring of _core_py._refine). */
static void refine(const CanonState *st, int *lab, char *ptn)
{
    int n = st->n;
    for (int s = 0; s < n;) {
        int next = s;
        u64 smask = 0;
        do
            smask |= bit(lab[next]);
        while (ptn[next++]);
        for (int a = 0, b; a < n; a = b + 1) {
            for (b = a; ptn[b]; b++)
                ;
            if (b > a && split_cell(st->adj, lab, ptn, a, b, smask))
                next = 0;
        }
        s = next;
    }
}

/* Equal packed triangles mean order_a[i] -> order_b[i] preserves edges. */
static void add_gen(CanonState *st, const int *order_a, const int *order_b)
{
    int n = st->n, *perm;
    if (st->ngens == st->maxgens) {
        int grown = st->maxgens ? 2 * st->maxgens : 16;
        int *gens = realloc(st->gens, (size_t)grown * n * sizeof(int));
        if (gens == NULL) {
            st->nomem = 1;
            return;
        }
        st->gens = gens;
        st->maxgens = grown;
    }
    perm = st->gens + (size_t)st->ngens++ * n;
    for (int i = 0; i < n; i++)
        perm[order_a[i]] = order_b[i];
}

/* Store the transpositions of twins as generators before the search.
 * Vertices with equal open neighbourhoods (false twins) or equal closed
 * ones (true twins) are swapped by an automorphism.  Each twin class is
 * chained, (u v) for consecutive members u < v: a star centred on u
 * fixes no prefix holding u, so it would stop pruning below the first
 * level. */
static void seed_twins(CanonState *st)
{
    int n = st->n, ident[MAXN], swapped[MAXN];
    for (int v = 0; v < n; v++)
        ident[v] = swapped[v] = v;
    for (int v = 1; v < n; v++)
        for (int closed = 0; closed <= 1; closed++) {
            u64 key = st->adj[v] | (closed ? bit(v) : 0);
            int u = v - 1;
            while (u >= 0 && (st->adj[u] | (closed ? bit(u) : 0)) != key)
                u--;
            if (u < 0)
                continue;
            swapped[u] = v;
            swapped[v] = u;
            add_gen(st, ident, swapped);
            swapped[u] = u;
            swapped[v] = v;
        }
}

static void record_leaf(CanonState *st, const int *lab)
{
    unsigned char buf[MAXBYTES];
    int n = st->n, nbytes = st->nbytes;
    pack_triangle(n, st->adj, lab, buf, nbytes);
    /* Comparing with the best leaf alone finds the rest of the group:
     * every automorphism maps it to a leaf of equal form, reached later
     * or in a branch pruned by generators already known (found at leaves
     * or seeded from twins, which no leaf finds).  No found generator
     * repeats one: a known best -> leaf map would have pruned that leaf. */
    if (!st->have_best || memcmp(buf, st->best, nbytes) < 0) {
        memcpy(st->best, buf, nbytes);
        memcpy(st->best_order, lab, (size_t)n * sizeof(int));
        st->have_best = 1;
    } else if (memcmp(buf, st->best, nbytes) == 0) {
        add_gen(st, st->best_order, lab);
    }
}

/* Merge the orbits of generators *applied.. that fix the current prefix
 * pointwise.  orbits[v] is the least vertex of v's orbit: where v and
 * g[v] differ in label, every vertex with the larger label takes the
 * smaller. */
static void absorb_gens(const CanonState *st, int *orbits, int *applied)
{
    for (; *applied < st->ngens; (*applied)++) {
        const int *g = st->gens + (size_t)*applied * st->n;
        int k = 0;
        while (k < st->depth && g[st->prefix[k]] == st->prefix[k])
            k++;
        if (k < st->depth)
            continue;
        for (int v = 0; v < st->n; v++) {
            int a = orbits[v], b = orbits[g[v]];
            int lo = a < b ? a : b, hi = a < b ? b : a;
            for (int u = 0; lo != hi && u < st->n; u++)
                if (orbits[u] == hi)
                    orbits[u] = lo;
        }
    }
}

static void search(CanonState *st, const int *lab_in, const char *ptn_in)
{
    int n = st->n;
    int lab[MAXN], child_lab[MAXN], orbits[MAXN];
    char ptn[MAXN], child_ptn[MAXN];
    int applied = 0, a = 0, b = 0;
    u64 cell = 0;
    memcpy(lab, lab_in, (size_t)n * sizeof(int));
    memcpy(ptn, ptn_in, (size_t)n);
    refine(st, lab, ptn);
    /* target: the first non-singleton cell */
    for (;;) {
        if (a >= n) {
            record_leaf(st, lab);
            return;
        }
        for (b = a; ptn[b]; b++)
            ;
        if (b > a)
            break;
        a = b + 1;
    }
    for (int k = a; k <= b; k++)
        cell |= bit(lab[k]);
    for (int i = 0; i < n; i++)
        orbits[i] = i;
    /* Candidates in ascending vertex order.  An automorphism fixing the
     * prefix keeps every cell, so v's orbit lies in the target cell, and
     * its label orbits[v], the least vertex, came earlier: a label other
     * than v was expanded or joined to an expanded vertex. */
    for (; cell && !st->nomem; cell &= cell - 1) {
        int v = lowbit(cell), pos = a + 1;
        /* pick up generators found so far, by earlier siblings too */
        absorb_gens(st, orbits, &applied);
        if (orbits[v] != v)
            continue;
        /* individualize v at the front of the target cell */
        memcpy(child_lab, lab, (size_t)n * sizeof(int));
        memcpy(child_ptn, ptn, (size_t)n);
        child_lab[a] = v;
        for (int k = a; k <= b; k++)
            if (lab[k] != v)
                child_lab[pos++] = lab[k];
        child_ptn[a] = 0;
        st->prefix[st->depth++] = v;
        search(st, child_lab, child_ptn);
        st->depth--;
    }
}

/* Canonical form of a graph with n <= MAXN vertices into form_out;
 * order_out[i] is the vertex placed at canonical position i and
 * orbits_out[v] the least vertex in v's orbit under the found
 * automorphisms.  With gens_out, the caller takes the generator store
 * (*ngens_out permutations of n ints, NULL when there are none) and
 * frees it.  Returns the form's length in bytes, or -1 with MemoryError
 * set when the generator store cannot grow. */
static int run_canonical(int n, const u64 *adj, int *order_out, int *orbits_out,
                         unsigned char *form_out, int **gens_out, int *ngens_out)
{
    CanonState st;
    int lab[MAXN] = {0}, applied = 0; /* zeroed: n may be 0 */
    char ptn[MAXN] = {0};
    st.n = n;
    st.nbytes = (n * (n - 1) / 2 + 7) / 8;
    memcpy(st.adj, adj, (size_t)n * sizeof(u64));
    st.have_best = 0;
    st.gens = NULL;
    st.ngens = st.maxgens = st.nomem = st.depth = 0;
    seed_twins(&st);
    /* the unit partition: its first splitter, the whole vertex set,
     * splits out the degree cells */
    for (int i = 0; i < n; i++) {
        lab[i] = i;
        ptn[i] = i < n - 1;
    }
    if (!st.nomem)
        search(&st, lab, ptn);
    if (st.nomem) {
        free(st.gens);
        PyErr_NoMemory();
        return -1;
    }
    /* at depth 0 every generator fixes the (empty) prefix */
    for (int v = 0; v < n; v++)
        orbits_out[v] = v;
    absorb_gens(&st, orbits_out, &applied);
    if (gens_out != NULL) {
        *gens_out = st.gens;
        *ngens_out = st.ngens;
    } else {
        free(st.gens);
    }
    memcpy(order_out, st.best_order, (size_t)n * sizeof(int));
    memcpy(form_out, st.best, st.nbytes);
    return st.nbytes;
}

/* ------------------------------------------------------------------------
 * subgraph containment (subgraph, not induced)
 * ---------------------------------------------------------------------- */

/* The pattern's search plans, one per start: start k is the least vertex
 * of the k-th automorphism orbit.  If sigma is an automorphism and a copy
 * maps f to vertex gn - 1, composing it with sigma^-1 gives a copy that
 * maps sigma(f) there, so one start per orbit decides the same answer.  Per
 * search position i, need[k][i] is the degree of the pattern vertex placed
 * there and backmask[k][i] holds the earlier positions of its neighbors.
 * Built once per pattern, used for every anchored test. */
typedef struct {
    int fn, nstarts;
    int need[MAXN][MAXN];
    u64 backmask[MAXN][MAXN];
} AnchoredPlan;

/* Order pattern vertices from start so each has many already-placed
 * neighbors, and fill that order's need and backmask. */
static void pattern_order(int fn, const u64 *fadj, int start, int *need, u64 *backmask)
{
    int order[MAXN], filled = 1;
    u64 placed = bit(start);
    order[0] = start;
    while (filled < fn) {
        int best = -1, bc = -1, bd = -1;
        for (int v = 0; v < fn; v++) {
            if ((placed >> v) & 1)
                continue;
            int c = popcount(fadj[v] & placed), d = popcount(fadj[v]);
            if (c > bc || (c == bc && d > bd)) {
                best = v;
                bc = c;
                bd = d;
            }
        }
        order[filled++] = best;
        placed |= bit(best);
    }
    for (int i = 0; i < fn; i++) {
        need[i] = popcount(fadj[order[i]]);
        backmask[i] = 0;
        for (int j = 0; j < i; j++)
            if ((fadj[order[i]] >> order[j]) & 1)
                backmask[i] |= bit(j);
    }
}

/* Depth-first search for an injection of the pattern, placed by start k's
 * plan, into the host whose first vertex is gn - 1.  used[top] holds the
 * host vertices placed at positions before top. */
static int embed(int gn, const u64 *gadj, const int *gdegs, const AnchoredPlan *plan, int k)
{
    const int *need = plan->need[k];
    const u64 *backmask = plan->backmask[k];
    int assigned[MAXN], top = 0;
    u64 cand_stack[MAXN], used[MAXN], full = full_mask(gn);
    cand_stack[0] = bit(gn - 1);
    used[0] = 0;
    while (top >= 0) {
        u64 cand = cand_stack[top], nxt, bm;
        int v;
        if (cand == 0) {
            top--;
            continue;
        }
        v = lowbit(cand);
        cand_stack[top] = cand & (cand - 1);
        if (gdegs[v] < need[top])
            continue;
        assigned[top] = v;
        if (top + 1 == plan->fn)
            return 1;
        used[top + 1] = used[top] | bit(v);
        nxt = full & ~used[top + 1];
        for (bm = backmask[top + 1]; bm; bm &= bm - 1)
            nxt &= gadj[assigned[lowbit(bm)]];
        cand_stack[++top] = nxt;
    }
    return 0;
}

/* Returns -1 with MemoryError set when the pattern's labeling fails. */
static int plan_anchored(int fn, const u64 *fadj, AnchoredPlan *plan)
{
    int order[MAXN], orbits[MAXN];
    unsigned char form[MAXBYTES];
    if (run_canonical(fn, fadj, order, orbits, form, NULL, NULL) < 0)
        return -1;
    plan->fn = fn;
    plan->nstarts = 0;
    for (int f = 0; f < fn; f++)
        if (orbits[f] == f) {
            pattern_order(fn, fadj, f, plan->need[plan->nstarts],
                          plan->backmask[plan->nstarts]);
            plan->nstarts++;
        }
    return 0;
}

/* Some copy of the pattern in the host uses vertex gn - 1; the callers
 * ensure 0 < plan->fn <= gn. */
static int anchored(int gn, const u64 *gadj, const AnchoredPlan *plan)
{
    int gdegs[MAXN];
    for (int v = 0; v < gn; v++)
        gdegs[v] = popcount(gadj[v]);
    for (int k = 0; k < plan->nstarts; k++)
        if (embed(gn, gadj, gdegs, plan, k))
            return 1;
    return 0;
}

/* ------------------------------------------------------------------------
 * subset orbits under the parent's automorphisms
 * ---------------------------------------------------------------------- */

typedef struct {
    int n, ngens;
    int *gens;   /* ngens permutations of n ints */
    u64 *seen;   /* 2^n bits: masks in an orbit already met */
    u64 *todo;   /* stack of masks whose images are still to be marked */
    size_t maxtodo;
} MaskOrbits;

static int mask_seen(const MaskOrbits *mo, u64 mask)
{
    return (mo->seen[mask >> 6] >> (mask & 63)) & 1;
}

static void free_mask_orbits(MaskOrbits *mo)
{
    free(mo->gens);
    free(mo->seen);
    free(mo->todo);
}

/* Mark the orbit of mask in seen.  Returns -1 with MemoryError set when
 * the stack cannot grow. */
static int mark_orbit(MaskOrbits *mo, u64 mask)
{
    size_t top = 0;
    mo->seen[mask >> 6] |= bit(mask & 63);
    for (;;) {
        for (int g = 0; g < mo->ngens; g++) {
            const int *perm = mo->gens + (size_t)g * mo->n;
            u64 img = 0;
            for (u64 m = mask; m; m &= m - 1)
                img |= bit(perm[lowbit(m)]);
            if (mask_seen(mo, img))
                continue;
            mo->seen[img >> 6] |= bit(img & 63);
            if (top == mo->maxtodo) {
                size_t grown = mo->maxtodo ? 2 * mo->maxtodo : 64;
                u64 *todo = realloc(mo->todo, grown * sizeof(u64));
                if (todo == NULL) {
                    PyErr_NoMemory();
                    return -1;
                }
                mo->todo = todo;
                mo->maxtodo = grown;
            }
            mo->todo[top++] = img;
        }
        if (top == 0)
            return 0;
        mask = mo->todo[--top];
    }
}

/* ------------------------------------------------------------------------
 * argument conversion
 * ---------------------------------------------------------------------- */

static int check_count(int n, const char *what)
{
    if (n < 0) {
        PyErr_Format(PyExc_ValueError, "%s must be non-negative, got %d", what, n);
        return -1;
    }
    return 0;
}

/* Copy the first n rows of a sequence of ints into out. */
static int load_adj(PyObject *adj, u64 *out, int n)
{
    PyObject *seq;
    if (n > MAXN) {
        PyErr_SetString(PyExc_ValueError, "bitset kernels cap graphs at 64 vertices");
        return -1;
    }
    if (n <= 0)
        return 0;
    seq = PySequence_Fast(adj, "adjacency rows must be a sequence of ints");
    if (seq == NULL)
        return -1;
    if (PySequence_Fast_GET_SIZE(seq) < n) {
        PyErr_SetString(PyExc_IndexError, "fewer adjacency rows than vertices");
        Py_DECREF(seq);
        return -1;
    }
    for (int i = 0; i < n; i++) {
        PyObject *row = PyNumber_Index(PySequence_Fast_GET_ITEM(seq, i));
        if (row == NULL) {
            Py_DECREF(seq);
            return -1;
        }
        out[i] = PyLong_AsUnsignedLongLong(row);
        Py_DECREF(row);
        if (out[i] == (u64)-1 && PyErr_Occurred()) {
            Py_DECREF(seq);
            return -1;
        }
    }
    Py_DECREF(seq);
    return 0;
}

static PyObject *rows_tuple(int n, const u64 *adj)
{
    PyObject *t = PyTuple_New(n);
    if (t == NULL)
        return NULL;
    for (int i = 0; i < n; i++) {
        PyObject *row = PyLong_FromUnsignedLongLong(adj[i]);
        if (row == NULL) {
            Py_DECREF(t);
            return NULL;
        }
        PyTuple_SET_ITEM(t, i, row);
    }
    return t;
}

static PyObject *int_tuple(int n, const int *vals)
{
    PyObject *t = PyTuple_New(n);
    if (t == NULL)
        return NULL;
    for (int i = 0; i < n; i++) {
        PyObject *v = PyLong_FromLong(vals[i]);
        if (v == NULL) {
            Py_DECREF(t);
            return NULL;
        }
        PyTuple_SET_ITEM(t, i, v);
    }
    return t;
}

/* ------------------------------------------------------------------------
 * module functions
 * ---------------------------------------------------------------------- */

PyDoc_STRVAR(canonical_labeling_doc,
"canonical_labeling(n, adj)\n--\n\n"
"Canonical form of a raw graph.\n\n"
"Returns ``(form, order, orbits)`` where ``form`` is the\n"
"lexicographically smallest packed upper triangle over all labelings\n"
"compatible with iterated refinement (a complete isomorphism\n"
"invariant), ``order[i]`` is the original vertex placed at canonical\n"
"position ``i`` by one labeling attaining it, and ``orbits[v]`` is the\n"
"least vertex in v's orbit under the automorphisms the search found.\n"
"The search prunes a branch only when a found automorphism maps it\n"
"onto an explored one, so these generate the whole group.");

static PyObject *py_canonical_labeling(PyObject *self, PyObject *args)
{
    int n, nbytes, order[MAXN], orbits[MAXN];
    u64 adj[MAXN];
    unsigned char form[MAXBYTES];
    PyObject *adj_obj, *order_obj, *orbits_obj, *result = NULL;
    if (!PyArg_ParseTuple(args, "iO:canonical_labeling", &n, &adj_obj))
        return NULL;
    if (check_count(n, "n") < 0 || load_adj(adj_obj, adj, n) < 0)
        return NULL;
    nbytes = run_canonical(n, adj, order, orbits, form, NULL, NULL);
    if (nbytes < 0)
        return NULL;
    order_obj = int_tuple(n, order);
    orbits_obj = int_tuple(n, orbits);
    if (order_obj != NULL && orbits_obj != NULL)
        result = Py_BuildValue("(y#OO)", form, (Py_ssize_t)nbytes, order_obj, orbits_obj);
    Py_XDECREF(order_obj);
    Py_XDECREF(orbits_obj);
    return result;
}

PyDoc_STRVAR(canonical_bytes_doc,
"canonical_bytes(n, adj)\n--\n\n"
"The form half of ``canonical_labeling(n, adj)``.");

static PyObject *py_canonical_bytes(PyObject *self, PyObject *args)
{
    PyObject *form, *labeling = py_canonical_labeling(self, args);
    if (labeling == NULL)
        return NULL;
    form = PyTuple_GET_ITEM(labeling, 0);
    Py_INCREF(form);
    Py_DECREF(labeling);
    return form;
}

PyDoc_STRVAR(contains_subgraph_anchored_doc,
"contains_subgraph_anchored(gn, gadj, fn, fadj)\n--\n\n"
"True iff some copy of the pattern among host vertices\n"
"``0..gn-1`` uses vertex ``gn - 1``.\n\n"
"A copy is an injection of the ``fn`` pattern vertices into the first\n"
"``gn`` host vertices that maps every pattern edge onto a host edge.\n"
"Only the first ``gn`` rows of ``gadj`` are read, and row bits at or\n"
"above ``gn`` never change the answer, so a caller may pass the rows\n"
"of a larger graph.  Two callers: ``augment_children``, whose parent\n"
"is already pattern-free, so any new copy uses the new vertex, and\n"
"``patterns.contains_subgraph``, which asks for each host vertex v\n"
"with ``gn = v + 1``.");

static PyObject *py_contains_subgraph_anchored(PyObject *self, PyObject *args)
{
    int gn, fn;
    u64 gadj[MAXN], fadj[MAXN];
    AnchoredPlan plan;
    PyObject *gadj_obj, *fadj_obj;
    if (!PyArg_ParseTuple(args, "iOiO:contains_subgraph_anchored",
                          &gn, &gadj_obj, &fn, &fadj_obj))
        return NULL;
    if (check_count(gn, "gn") < 0 || check_count(fn, "fn") < 0)
        return NULL;
    if (fn == 0 || fn > gn)
        Py_RETURN_FALSE;
    if (load_adj(gadj_obj, gadj, gn) < 0 || load_adj(fadj_obj, fadj, fn) < 0)
        return NULL;
    if (plan_anchored(fn, fadj, &plan) < 0)
        return NULL;
    return PyBool_FromLong(anchored(gn, gadj, &plan));
}

PyDoc_STRVAR(augment_children_doc,
"augment_children(n, adj, fn, fadj)\n--\n\n"
"One level of canonical augmentation: each candidate and its verdict.\n\n"
"Extends the ``n``-vertex parent by a new vertex joined to subsets of\n"
"the old vertices.  A child is a candidate iff it stays free of the\n"
"forbidden pattern (when one is given), and it passes iff its new\n"
"vertex lies in the automorphism orbit of its canonically-last vertex\n"
"(McKay's rule).  ``enumeration._emit`` keeps a class iff one of its\n"
"candidates passes, that is iff deleting the class's canonically-last\n"
"vertex gives back the parent's class, so each isomorphism class\n"
"comes from exactly one parent, and emits it as its first candidate\n"
"in subset order.\n\n"
"Only subsets that give the new vertex the maximum degree are tried:\n"
"the canonically-last vertex lies in the maximum-degree cell, so the\n"
"orbit test fails on every other child, and every candidate of a\n"
"kept class shares its new vertex's degree e(child) - e(parent), so\n"
"skipping the others drops neither a kept class's first candidate\n"
"nor its passing one.  So a k-subset is skipped iff k < D, the\n"
"parent's maximum degree, or k = D and it holds a vertex of degree D,\n"
"which its new edge lifts to D + 1 > k.\n\n"
"Of the subsets left, only the least of each orbit under the parent's\n"
"automorphisms is expanded.  An automorphism g of the parent, with\n"
"the new vertex fixed, maps the child of S onto the child of g(S), so\n"
"both get the same containment and orbit verdicts; and a class's\n"
"first candidate is always the least subset of its orbit.\n\n"
"Returns ``[(child_adj, child_canon, passed), ...]`` in subset order.");

static PyObject *py_augment_children(PyObject *self, PyObject *args)
{
    int n, fn, fits, top = 0, order[MAXN], orbits[MAXN];
    u64 parent[MAXN], child[MAXN], fadj[MAXN], tops = 0;
    unsigned char form[MAXBYTES];
    AnchoredPlan plan;
    MaskOrbits orbs = {0, 0, NULL, NULL, NULL, 0};
    PyObject *adj_obj, *fadj_obj, *passed, *item, *out = NULL;
    if (!PyArg_ParseTuple(args, "iOiO:augment_children", &n, &adj_obj, &fn, &fadj_obj))
        return NULL;
    if (n >= MAXN) {
        PyErr_SetString(PyExc_ValueError, "augmentation kernel caps graphs at 64 vertices");
        return NULL;
    }
    if (check_count(n, "n") < 0 || check_count(fn, "fn") < 0)
        return NULL;
    if (load_adj(adj_obj, parent, n) < 0 || load_adj(fadj_obj, fadj, fn) < 0)
        return NULL;
    /* no child holds a pattern with more vertices: then no plan, no tests */
    fits = fn && fn <= n + 1;
    if (fits && plan_anchored(fn, fadj, &plan) < 0)
        return NULL;
    /* the parent's generators: only the least mask of each orbit is expanded */
    orbs.n = n;
    if (run_canonical(n, parent, order, orbits, form, &orbs.gens, &orbs.ngens) < 0)
        return NULL;
    if (orbs.ngens) {
        orbs.seen = calloc((size_t)((bit(n) + 63) >> 6), sizeof(u64));
        if (orbs.seen == NULL) {
            PyErr_NoMemory();
            goto error;
        }
    }
    for (int v = 0; v < n; v++) {
        int d = popcount(parent[v]);
        if (d > top) {
            top = d;
            tops = 0;
        }
        if (d == top)
            tops |= bit(v);
    }
    out = PyList_New(0);
    if (out == NULL)
        goto error;
    for (u64 mask = 0; mask < bit(n); mask++) {
        Py_ssize_t nbytes;
        int k = popcount(mask);
        if (k < top || (k == top && (mask & tops)))
            continue;
        if (orbs.ngens) {
            if (mask_seen(&orbs, mask))
                continue;
            if (mark_orbit(&orbs, mask) < 0)
                goto error;
        }
        memcpy(child, parent, (size_t)n * sizeof(u64));
        child[n] = mask;
        for (u64 m = mask; m; m &= m - 1)
            child[lowbit(m)] |= bit(n);
        if (fits && anchored(n + 1, child, &plan))
            continue;
        nbytes = run_canonical(n + 1, child, order, orbits, form, NULL, NULL);
        if (nbytes < 0)
            goto error;
        passed = orbits[n] == orbits[order[n]] ? Py_True : Py_False;
        item = Py_BuildValue("(Ny#O)", rows_tuple(n + 1, child), form, nbytes, passed);
        if (item == NULL || PyList_Append(out, item) < 0) {
            Py_XDECREF(item);
            goto error;
        }
        Py_DECREF(item);
    }
    free_mask_orbits(&orbs);
    return out;
error:
    Py_XDECREF(out);
    free_mask_orbits(&orbs);
    return NULL;
}

static PyMethodDef core_methods[] = {
    {"canonical_labeling", py_canonical_labeling, METH_VARARGS, canonical_labeling_doc},
    {"canonical_bytes", py_canonical_bytes, METH_VARARGS, canonical_bytes_doc},
    {"contains_subgraph_anchored", py_contains_subgraph_anchored, METH_VARARGS,
     contains_subgraph_anchored_doc},
    {"augment_children", py_augment_children, METH_VARARGS, augment_children_doc},
    {NULL, NULL, 0, NULL},
};

static int core_exec(PyObject *m)
{
    return PyModule_AddStringConstant(m, "BACKEND", "c");
}

static PyModuleDef_Slot core_slots[] = {
    {Py_mod_exec, core_exec},
    {0, NULL},
};

static struct PyModuleDef core_module = {
    PyModuleDef_HEAD_INIT,
    "_core",
    "Compiled bitset kernels; turantools._core_py is the reference twin.",
    0,
    core_methods,
    core_slots,
    NULL,
    NULL,
    NULL,
};

PyMODINIT_FUNC PyInit__core(void)
{
    return PyModuleDef_Init(&core_module);
}
