/* Compiled bitset kernels: canonical labeling, subgraph containment,
 * and the canonical-augmentation step.
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
    unsigned char first[MAXBYTES];
    int first_order[MAXN];
    int have_first;
    int *gens; /* ngens discovered automorphisms of n ints, vertex -> vertex */
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
    int cnt[MAXN], vals[MAXN], tmp[MAXN];
    int nvals = 0, pos = a;
    for (int k = a; k <= b; k++) {
        int c = popcount(adj[lab[k]] & smask), t = 0;
        cnt[k] = c;
        while (t < nvals && vals[t] != c)
            t++;
        if (t == nvals)
            vals[nvals++] = c;
    }
    if (nvals == 1)
        return 0;
    for (int t = 1; t < nvals; t++) {
        int c = vals[t], k = t - 1;
        while (k >= 0 && vals[k] > c) {
            vals[k + 1] = vals[k];
            k--;
        }
        vals[k + 1] = c;
    }
    for (int t = 0; t < nvals; t++) {
        for (int k = a; k <= b; k++)
            if (cnt[k] == vals[t]) {
                tmp[pos] = lab[k];
                ptn[pos++] = 1;
            }
        ptn[pos - 1] = 0;
    }
    memcpy(lab + a, tmp + a, (size_t)(b - a + 1) * sizeof(int));
    return 1;
}

/* Coarsest equitable refinement, sequenced like the Python twin: one
 * splitter cell splits every cell, then the scan restarts. */
static void refine(const CanonState *st, int *lab, char *ptn)
{
    int n = st->n, changed = 1;
    while (changed) {
        changed = 0;
        for (int s = 0; s < n && !changed;) {
            int s_end = s;
            u64 smask = 0;
            while (ptn[s_end])
                s_end++;
            for (int k = s; k <= s_end; k++)
                smask |= bit(lab[k]);
            for (int a = 0; a < n;) {
                int b = a;
                while (ptn[b])
                    b++;
                if (b > a && split_cell(st->adj, lab, ptn, a, b, smask))
                    changed = 1;
                a = b + 1;
            }
            s = s_end + 1;
        }
    }
}

/* Equal packed triangles mean order_a[i] -> order_b[i] preserves edges. */
static void add_gen(CanonState *st, const int *order_a, const int *order_b)
{
    int n = st->n, perm[MAXN], i, g;
    for (i = 0; i < n; i++)
        perm[order_a[i]] = order_b[i];
    for (i = 0; i < n && perm[i] == i; i++)
        ;
    if (i == n)
        return;
    for (g = 0; g < st->ngens; g++)
        if (memcmp(st->gens + (size_t)g * n, perm, (size_t)n * sizeof(int)) == 0)
            return;
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
    memcpy(st->gens + (size_t)st->ngens++ * n, perm, (size_t)n * sizeof(int));
}

static void record_leaf(CanonState *st, const int *lab)
{
    unsigned char buf[MAXBYTES];
    int n = st->n, nbytes = st->nbytes;
    pack_triangle(n, st->adj, lab, buf, nbytes);
    if (!st->have_best || memcmp(buf, st->best, nbytes) < 0) {
        memcpy(st->best, buf, nbytes);
        memcpy(st->best_order, lab, (size_t)n * sizeof(int));
        st->have_best = 1;
    } else if (memcmp(buf, st->best, nbytes) == 0) {
        add_gen(st, st->best_order, lab);
    }
    if (!st->have_first) {
        memcpy(st->first, buf, nbytes);
        memcpy(st->first_order, lab, (size_t)n * sizeof(int));
        st->have_first = 1;
    } else if (memcmp(buf, st->first, nbytes) == 0) {
        add_gen(st, st->first_order, lab);
    }
}

static int uf_find(int *parent, int v)
{
    while (parent[v] != v) {
        parent[v] = parent[parent[v]];
        v = parent[v];
    }
    return v;
}

/* Merge the orbits of generators *applied.. that fix the current prefix
 * pointwise. */
static void absorb_gens(const CanonState *st, int *parent, int *applied)
{
    for (; *applied < st->ngens; (*applied)++) {
        const int *g = st->gens + (size_t)*applied * st->n;
        int k = 0;
        while (k < st->depth && g[st->prefix[k]] == st->prefix[k])
            k++;
        if (k < st->depth)
            continue;
        for (int v = 0; v < st->n; v++) {
            int ra = uf_find(parent, v), rb = uf_find(parent, g[v]);
            if (ra != rb)
                parent[ra] = rb;
        }
    }
}

static void search(CanonState *st, const int *lab_in, const char *ptn_in)
{
    int n = st->n;
    int lab[MAXN], child_lab[MAXN], cell[MAXN], parent[MAXN], tried[MAXN];
    char ptn[MAXN], child_ptn[MAXN];
    int ntried = 0, applied = 0, a = 0, b = 0, cell_len;
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
    cell_len = b - a + 1;
    /* candidates in ascending vertex order */
    for (int i = 0; i < cell_len; i++) {
        int v = lab[a + i], k = i - 1;
        while (k >= 0 && cell[k] > v) {
            cell[k + 1] = cell[k];
            k--;
        }
        cell[k + 1] = v;
    }
    for (int i = 0; i < n; i++)
        parent[i] = i;
    absorb_gens(st, parent, &applied);
    for (int i = 0; i < cell_len && !st->nomem; i++) {
        int v = cell[i], k, pos;
        /* pick up generators discovered by earlier siblings */
        absorb_gens(st, parent, &applied);
        for (k = 0; k < ntried; k++)
            if (uf_find(parent, v) == uf_find(parent, tried[k]))
                break;
        if (k < ntried)
            continue;
        tried[ntried++] = v;
        /* individualize v at the front of the target cell */
        memcpy(child_lab, lab, (size_t)n * sizeof(int));
        memcpy(child_ptn, ptn, (size_t)n);
        child_lab[a] = v;
        pos = a + 1;
        for (k = a; k <= b; k++)
            if (lab[k] != v)
                child_lab[pos++] = lab[k];
        child_ptn[a] = 0;
        st->prefix[st->depth++] = v;
        search(st, child_lab, child_ptn);
        st->depth--;
    }
}

/* Canonical form of a graph with n <= MAXN vertices into form_out;
 * order_out[i] is the vertex placed at canonical position i.  Returns the
 * form's length in bytes, or -1 with MemoryError set when the generator
 * store cannot grow. */
static int run_canonical(int n, const u64 *adj, int *order_out, unsigned char *form_out)
{
    CanonState st;
    int lab[MAXN], degs[MAXN], maxdeg = 0, pos = 0;
    char ptn[MAXN];
    if (n <= 1) {
        if (n == 1)
            order_out[0] = 0;
        return 0;
    }
    st.n = n;
    st.nbytes = (n * (n - 1) / 2 + 7) / 8;
    memcpy(st.adj, adj, (size_t)n * sizeof(u64));
    st.have_best = st.have_first = 0;
    st.gens = NULL;
    st.ngens = st.maxgens = st.nomem = st.depth = 0;
    for (int i = 0; i < n; i++) {
        degs[i] = popcount(adj[i]);
        if (degs[i] > maxdeg)
            maxdeg = degs[i];
    }
    /* initial cells: degree ascending, vertex id ascending inside */
    for (int d = 0; d <= maxdeg; d++)
        for (int i = 0; i < n; i++)
            if (degs[i] == d)
                lab[pos++] = i;
    for (int i = 0; i < n - 1; i++)
        ptn[i] = degs[lab[i]] == degs[lab[i + 1]];
    ptn[n - 1] = 0;
    search(&st, lab, ptn);
    free(st.gens);
    if (st.nomem) {
        PyErr_NoMemory();
        return -1;
    }
    memcpy(order_out, st.best_order, (size_t)n * sizeof(int));
    memcpy(form_out, st.best, st.nbytes);
    return st.nbytes;
}

/* ------------------------------------------------------------------------
 * subgraph containment (subgraph, not induced)
 * ---------------------------------------------------------------------- */

/* Order pattern vertices so each has many already-placed neighbors.
 * backmask[i] holds the positions (not vertex ids) of earlier neighbors
 * of order[i]. */
static void pattern_order(int fn, const u64 *fadj, int start, int *order,
                          u64 *backmask, int *fdegs)
{
    u64 placed = 0;
    int filled = 0;
    for (int v = 0; v < fn; v++)
        fdegs[v] = popcount(fadj[v]);
    if (start >= 0) {
        order[filled++] = start;
        placed = bit(start);
    }
    while (filled < fn) {
        int best = -1, bc = -1, bd = -1;
        for (int v = 0; v < fn; v++) {
            if ((placed >> v) & 1)
                continue;
            int c = popcount(fadj[v] & placed), d = fdegs[v];
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
        backmask[i] = 0;
        for (int j = 0; j < i; j++)
            if ((fadj[order[i]] >> order[j]) & 1)
                backmask[i] |= bit(j);
    }
}

/* Depth-first search for an injection of the ordered pattern into the
 * host whose first vertex is drawn from first_candidates. */
static int embed(int gn, const u64 *gadj, int fn, const int *order,
                 const u64 *backmask, const int *fdegs, u64 first_candidates)
{
    int gdegs[MAXN], assigned[MAXN], top = 0;
    u64 cand_stack[MAXN + 1], full = full_mask(gn);
    for (int v = 0; v < gn; v++)
        gdegs[v] = popcount(gadj[v]);
    cand_stack[0] = first_candidates;
    while (top >= 0) {
        u64 cand = cand_stack[top], nxt = full, bm;
        int v;
        if (cand == 0) {
            top--;
            continue;
        }
        v = lowbit(cand);
        cand_stack[top] = cand & (cand - 1);
        if (gdegs[v] < fdegs[order[top]])
            continue;
        assigned[top] = v;
        if (top + 1 == fn)
            return 1;
        for (bm = backmask[top + 1]; bm; bm &= bm - 1)
            nxt &= gadj[assigned[lowbit(bm)]];
        for (int j = 0; j <= top; j++)
            nxt &= ~bit(assigned[j]);
        cand_stack[++top] = nxt;
    }
    return 0;
}

/* Some copy of the pattern in the host uses vertex anchor. */
static int anchored(int gn, const u64 *gadj, int fn, const u64 *fadj, int anchor)
{
    int order[MAXN], fdegs[MAXN];
    u64 backmask[MAXN];
    if (fn == 0 || fn > gn)
        return 0;
    for (int f = 0; f < fn; f++) {
        pattern_order(fn, fadj, f, order, backmask, fdegs);
        if (embed(gn, gadj, fn, order, backmask, fdegs, bit(anchor)))
            return 1;
    }
    return 0;
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

/* ------------------------------------------------------------------------
 * module functions
 * ---------------------------------------------------------------------- */

PyDoc_STRVAR(canonical_labeling_doc,
"canonical_labeling(n, adj)\n--\n\n"
"Canonical form of a raw graph.\n\n"
"Returns ``(form, order)`` where ``form`` is the lexicographically\n"
"smallest packed upper triangle over all labelings compatible with\n"
"iterated refinement (a complete isomorphism invariant) and\n"
"``order[i]`` is the original vertex placed at canonical position\n"
"``i`` by one labeling attaining it.");

static PyObject *py_canonical_labeling(PyObject *self, PyObject *args)
{
    int n, nbytes, order[MAXN];
    u64 adj[MAXN];
    unsigned char form[MAXBYTES];
    PyObject *adj_obj, *order_obj, *form_obj;
    if (!PyArg_ParseTuple(args, "iO:canonical_labeling", &n, &adj_obj))
        return NULL;
    if (check_count(n, "n") < 0 || load_adj(adj_obj, adj, n) < 0)
        return NULL;
    nbytes = run_canonical(n, adj, order, form);
    if (nbytes < 0)
        return NULL;
    order_obj = PyTuple_New(n);
    if (order_obj == NULL)
        return NULL;
    for (int i = 0; i < n; i++) {
        PyObject *v = PyLong_FromLong(order[i]);
        if (v == NULL) {
            Py_DECREF(order_obj);
            return NULL;
        }
        PyTuple_SET_ITEM(order_obj, i, v);
    }
    form_obj = PyBytes_FromStringAndSize((const char *)form, nbytes);
    if (form_obj == NULL) {
        Py_DECREF(order_obj);
        return NULL;
    }
    return Py_BuildValue("(NN)", form_obj, order_obj);
}

PyDoc_STRVAR(canonical_bytes_doc,
"canonical_bytes(n, adj)\n--\n\n"
"The form half of ``canonical_labeling(n, adj)``.");

static PyObject *py_canonical_bytes(PyObject *self, PyObject *args)
{
    int n, nbytes, order[MAXN];
    u64 adj[MAXN];
    unsigned char form[MAXBYTES];
    PyObject *adj_obj;
    if (!PyArg_ParseTuple(args, "iO:canonical_bytes", &n, &adj_obj))
        return NULL;
    if (check_count(n, "n") < 0 || load_adj(adj_obj, adj, n) < 0)
        return NULL;
    nbytes = run_canonical(n, adj, order, form);
    if (nbytes < 0)
        return NULL;
    return PyBytes_FromStringAndSize((const char *)form, nbytes);
}

PyDoc_STRVAR(contains_subgraph_doc,
"contains_subgraph(gn, gadj, fn, fadj)\n--\n\n"
"True iff some injection maps every pattern edge onto a host edge.");

static PyObject *py_contains_subgraph(PyObject *self, PyObject *args)
{
    int gn, fn, order[MAXN], fdegs[MAXN];
    u64 gadj[MAXN], fadj[MAXN], backmask[MAXN];
    PyObject *gadj_obj, *fadj_obj;
    if (!PyArg_ParseTuple(args, "iOiO:contains_subgraph", &gn, &gadj_obj, &fn, &fadj_obj))
        return NULL;
    if (check_count(gn, "gn") < 0 || check_count(fn, "fn") < 0)
        return NULL;
    if (fn > gn)
        Py_RETURN_FALSE;
    if (fn == 0)
        Py_RETURN_TRUE;
    if (load_adj(gadj_obj, gadj, gn) < 0 || load_adj(fadj_obj, fadj, fn) < 0)
        return NULL;
    pattern_order(fn, fadj, -1, order, backmask, fdegs);
    return PyBool_FromLong(embed(gn, gadj, fn, order, backmask, fdegs, full_mask(gn)));
}

PyDoc_STRVAR(contains_subgraph_anchored_doc,
"contains_subgraph_anchored(gn, gadj, fn, fadj, anchor)\n--\n\n"
"Like contains_subgraph but the image must include ``anchor``.");

static PyObject *py_contains_subgraph_anchored(PyObject *self, PyObject *args)
{
    int gn, fn, anchor;
    u64 gadj[MAXN], fadj[MAXN];
    PyObject *gadj_obj, *fadj_obj;
    if (!PyArg_ParseTuple(args, "iOiOi:contains_subgraph_anchored",
                          &gn, &gadj_obj, &fn, &fadj_obj, &anchor))
        return NULL;
    if (check_count(gn, "gn") < 0 || check_count(fn, "fn") < 0)
        return NULL;
    if (fn == 0 || fn > gn)
        Py_RETURN_FALSE;
    if (anchor < 0 || anchor >= gn) {
        PyErr_Format(PyExc_ValueError, "anchor %d outside 0..%d", anchor, gn - 1);
        return NULL;
    }
    if (load_adj(gadj_obj, gadj, gn) < 0 || load_adj(fadj_obj, fadj, fn) < 0)
        return NULL;
    return PyBool_FromLong(anchored(gn, gadj, fn, fadj, anchor));
}

PyDoc_STRVAR(augment_children_doc,
"augment_children(n, adj, parent_canon, fn, fadj)\n--\n\n"
"One level of canonical augmentation.\n\n"
"Extends the ``n``-vertex parent by a new vertex joined to every\n"
"subset of the old vertices and keeps a child iff (a) it stays free\n"
"of the forbidden pattern (when one is given), (b) it is not\n"
"isomorphic to an already kept sibling, and (c) deleting the child's\n"
"canonically-last vertex gives back the parent's class, so each\n"
"isomorphism class is produced from exactly one parent.\n\n"
"Returns ``[(child_adj, child_canon), ...]`` in subset order.");

static void delete_vertex(int n, const u64 *adj, int u, u64 *out)
{
    u64 low = bit(u) - 1;
    int pos = 0;
    for (int v = 0; v < n; v++)
        if (v != u)
            out[pos++] = (adj[v] & low) | ((adj[v] >> (u + 1)) << u);
}

static PyObject *py_augment_children(PyObject *self, PyObject *args)
{
    int n, fn, order[MAXN];
    u64 parent[MAXN], child[MAXN], deleted[MAXN], fadj[MAXN];
    unsigned char form[MAXBYTES], dform[MAXBYTES];
    PyObject *adj_obj, *canon_obj, *fadj_obj, *out = NULL, *seen = NULL;
    if (!PyArg_ParseTuple(args, "iOSiO:augment_children",
                          &n, &adj_obj, &canon_obj, &fn, &fadj_obj))
        return NULL;
    if (n >= MAXN) {
        PyErr_SetString(PyExc_ValueError, "augmentation kernel caps graphs at 64 vertices");
        return NULL;
    }
    if (check_count(n, "n") < 0 || check_count(fn, "fn") < 0)
        return NULL;
    if (load_adj(adj_obj, parent, n) < 0 || load_adj(fadj_obj, fadj, fn) < 0)
        return NULL;
    out = PyList_New(0);
    seen = PySet_New(NULL);
    if (out == NULL || seen == NULL)
        goto error;
    for (u64 mask = 0; mask < bit(n); mask++) {
        PyObject *form_obj;
        int nbytes, accepted, found;
        memcpy(child, parent, (size_t)n * sizeof(u64));
        child[n] = mask;
        for (u64 m = mask; m; m &= m - 1)
            child[lowbit(m)] |= bit(n);
        if (fn && anchored(n + 1, child, fn, fadj, n))
            continue;
        nbytes = run_canonical(n + 1, child, order, form);
        if (nbytes < 0)
            goto error;
        form_obj = PyBytes_FromStringAndSize((const char *)form, nbytes);
        if (form_obj == NULL)
            goto error;
        found = PySet_Contains(seen, form_obj);
        if (found != 0 || PySet_Add(seen, form_obj) < 0) {
            Py_DECREF(form_obj);
            if (found > 0)
                continue;
            goto error;
        }
        if (order[n] == n) {
            accepted = 1;
        } else {
            int dorder[MAXN], dbytes;
            delete_vertex(n + 1, child, order[n], deleted);
            dbytes = run_canonical(n, deleted, dorder, dform);
            if (dbytes < 0) {
                Py_DECREF(form_obj);
                goto error;
            }
            accepted = dbytes == PyBytes_GET_SIZE(canon_obj)
                       && memcmp(dform, PyBytes_AS_STRING(canon_obj), dbytes) == 0;
        }
        if (accepted) {
            PyObject *rows = rows_tuple(n + 1, child), *item;
            if (rows == NULL) {
                Py_DECREF(form_obj);
                goto error;
            }
            item = PyTuple_Pack(2, rows, form_obj);
            Py_DECREF(rows);
            if (item == NULL || PyList_Append(out, item) < 0) {
                Py_XDECREF(item);
                Py_DECREF(form_obj);
                goto error;
            }
            Py_DECREF(item);
        }
        Py_DECREF(form_obj);
    }
    Py_DECREF(seen);
    return out;
error:
    Py_XDECREF(out);
    Py_XDECREF(seen);
    return NULL;
}

static PyMethodDef core_methods[] = {
    {"canonical_labeling", py_canonical_labeling, METH_VARARGS, canonical_labeling_doc},
    {"canonical_bytes", py_canonical_bytes, METH_VARARGS, canonical_bytes_doc},
    {"contains_subgraph", py_contains_subgraph, METH_VARARGS, contains_subgraph_doc},
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
