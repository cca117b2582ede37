/* The node loops of gossip_sim.process's triangulation_round and
 * twohop_round, run for consecutive rounds in one call, and on an
 * undirected graph the tail engines _TriTail and _HopTail after them, so
 * that run_to_convergence makes one call a run: a whole undirected run, or
 * a directed run's kernel rounds up to the hand-over.  It returns the
 * rounds it ran.
 *
 * rounds() draws the Mersenne Twister words (Matsumoto and Nishimura 1998)
 * that the Python kernels and engines draw from the same random.Random:
 * it reads the generator's state once by getstate() and writes it back
 * once by setstate().  It reads the graph's neighbour arrays in place,
 * through their array('H') buffers, sets a queued edge's bytes in the rows
 * at once, and appends a round's edges to the arrays at the end of the
 * round in queue order, as _apply does; an engine round's edges are
 * written after its last candidate, in the order _link writes them.  An
 * array that runs out of room is replaced once, in _adj, by one with room
 * for the n - 1 neighbours a node can have, and the call cuts it back to
 * its neighbours before it returns.  The Python kernels and engines define
 * the semantics; tests hold this file to them round by round, run by run
 * and by their pinned counts.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

/* MT19937 as CPython's _random module keeps it: 624 words and the index
 * of the next word to temper. */
enum { MT_N = 624, MT_M = 397 };

typedef struct {
    uint32_t mt[MT_N];
    int index;
} Twister;

static uint32_t
next_word(Twister *s)
{
    static const uint32_t mag01[2] = {0x0U, 0x9908b0dfU};
    uint32_t y, *mt = s->mt;
    int kk;

    if (s->index >= MT_N) {
        for (kk = 0; kk < MT_N - MT_M; kk++) {
            y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
            mt[kk] = mt[kk + MT_M] ^ (y >> 1) ^ mag01[y & 1U];
        }
        for (; kk < MT_N - 1; kk++) {
            y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
            mt[kk] = mt[kk + (MT_M - MT_N)] ^ (y >> 1) ^ mag01[y & 1U];
        }
        y = (mt[MT_N - 1] & 0x80000000U) | (mt[0] & 0x7fffffffU);
        mt[MT_N - 1] = mt[MT_M - 1] ^ (y >> 1) ^ mag01[y & 1U];
        s->index = 0;
    }
    y = mt[s->index++];
    y ^= y >> 11;
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    return y ^ (y >> 18);
}

/* randrange(d) for 1 <= d < 2**32, as process._below draws it:
 * getrandbits(k) with k = d.bit_length() until a value falls below d, where
 * getrandbits(k) for k <= 32 is the top k bits of one word.  The kernels
 * call it for d >= 2 only; the engines for d = 1 too, which draws words
 * until one's top bit is 0. */
static Py_ssize_t
below(Twister *s, Py_ssize_t d)
{
    int k = 0;
    uint32_t r;

    while (d >> k)
        k++;
    do
        r = next_word(s) >> (32 - k);
    while (r >= (uint32_t)d);
    return r;
}

/* random(): 53 bits from two words, as CPython's random_random makes them. */
static double
uniform(Twister *s)
{
    uint32_t a = next_word(s) >> 5, b = next_word(s) >> 6;

    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

/* Read rng.getstate() into s and keep it in *state, or leave *state NULL
 * with an exception set. */
static int
read_state(PyObject *rng, Twister *s, PyObject **state)
{
    PyObject *words;
    Py_ssize_t i;
    long index;

    *state = PyObject_CallMethod(rng, "getstate", NULL);
    if (*state == NULL)
        return -1;
    if (!PyTuple_Check(*state) || PyTuple_GET_SIZE(*state) != 3
        || PyLong_AsLong(PyTuple_GET_ITEM(*state, 0)) != 3
        || !PyTuple_Check(words = PyTuple_GET_ITEM(*state, 1))
        || PyTuple_GET_SIZE(words) != MT_N + 1)
        goto bad;
    for (i = 0; i < MT_N; i++) {
        unsigned long w = PyLong_AsUnsignedLong(PyTuple_GET_ITEM(words, i));
        if (w == (unsigned long)-1 && PyErr_Occurred())
            goto bad;
        s->mt[i] = (uint32_t)w;
    }
    index = PyLong_AsLong(PyTuple_GET_ITEM(words, MT_N));
    if (index < 0 || index > MT_N)
        goto bad;
    s->index = (int)index;
    return 0;
bad:
    if (!PyErr_Occurred())
        PyErr_SetString(PyExc_ValueError, "not a version 3 Mersenne Twister state");
    Py_CLEAR(*state);
    return -1;
}

/* setstate() with the words of s and the rest of state as it was read. */
static int
write_state(PyObject *rng, const Twister *s, PyObject *state)
{
    PyObject *words, *whole, *done;
    Py_ssize_t i;

    words = PyTuple_New(MT_N + 1);
    if (words == NULL)
        return -1;
    for (i = 0; i <= MT_N; i++) {
        PyObject *w = i < MT_N ? PyLong_FromUnsignedLong(s->mt[i]) : PyLong_FromLong(s->index);
        if (w == NULL) {
            Py_DECREF(words);
            return -1;
        }
        PyTuple_SET_ITEM(words, i, w);
    }
    whole = PyTuple_Pack(3, PyTuple_GET_ITEM(state, 0), words, PyTuple_GET_ITEM(state, 2));
    Py_DECREF(words);
    if (whole == NULL)
        return -1;
    done = PyObject_CallMethod(rng, "setstate", "(O)", whole);
    Py_DECREF(whole);
    Py_XDECREF(done);
    return done == NULL ? -1 : 0;
}

/* The graph as the kernels read it: _adj, its arrays (borrowed from it),
 * their 2-byte buffers, their lengths and the rows' bytes, and each
 * array's room, its length: its len neighbours and the slots reserved
 * after them. */
typedef struct {
    Py_ssize_t n;
    PyObject *adj, **seq;
    uint16_t **words;
    Py_ssize_t *len, *room;
    char **row;
} Graph;

/* Point g at the buffer of array u as it is now; the pointer holds until
 * the array is replaced, which only this file does while a call runs. */
static int
refresh(Graph *g, Py_ssize_t u)
{
    Py_buffer view;

    if (PyObject_GetBuffer(g->seq[u], &view, PyBUF_FORMAT) < 0)
        return -1;
    if (view.itemsize != 2 || strcmp(view.format, "H") != 0) {
        PyBuffer_Release(&view);
        PyErr_SetString(PyExc_TypeError, "neighbours must be an array('H')");
        return -1;
    }
    g->words[u] = (uint16_t *)view.buf;
    g->room[u] = view.len / 2;
    PyBuffer_Release(&view);
    return 0;
}

static int
open_graph(Graph *g, PyObject *graph)
{
    PyObject *adj, *rows = NULL;
    Py_ssize_t u, n;
    int rc = -1;

    memset(g, 0, sizeof *g);
    g->adj = adj = PyObject_GetAttrString(graph, "_adj");
    rows = PyObject_GetAttrString(graph, "_rows");
    if (adj == NULL || rows == NULL)
        goto done;
    if (!PyList_Check(adj) || !PyList_Check(rows) || PyList_GET_SIZE(adj) != PyList_GET_SIZE(rows)
        || PyList_GET_SIZE(adj) < 1) {
        PyErr_SetString(PyExc_TypeError, "_adj and _rows must be lists of one entry per node");
        goto done;
    }
    g->n = n = PyList_GET_SIZE(adj);
    g->seq = PyMem_New(PyObject *, n);
    g->words = PyMem_New(uint16_t *, n);
    g->len = PyMem_New(Py_ssize_t, n);
    g->room = PyMem_New(Py_ssize_t, n);
    g->row = PyMem_New(char *, n);
    if (g->seq == NULL || g->words == NULL || g->len == NULL || g->room == NULL || g->row == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (u = 0; u < n; u++) {
        PyObject *row = PyList_GET_ITEM(rows, u);
        g->seq[u] = PyList_GET_ITEM(adj, u);
        if (!PyByteArray_Check(row) || PyByteArray_GET_SIZE(row) != n) {
            PyErr_SetString(PyExc_TypeError, "each row must be a bytearray of n bytes");
            goto done;
        }
        g->row[u] = PyByteArray_AS_STRING(row);
        if (refresh(g, u) < 0)
            goto done;
        g->len[u] = g->room[u];
    }
    rc = 0;
done:
    /* _rows keeps its items alive: the graph holds it */
    Py_XDECREF(rows);
    return rc;
}

static void
close_graph(Graph *g)
{
    Py_XDECREF(g->adj);
    PyMem_Free(g->seq);
    PyMem_Free(g->words);
    PyMem_Free(g->len);
    PyMem_Free(g->room);
    PyMem_Free(g->row);
}

/* Take the slots reserved and not written off the arrays again. */
static int
cut_back(Graph *g)
{
    Py_ssize_t u;
    int rc = 0;

    for (u = 0; u < g->n; u++)
        if (g->room[u] > g->len[u] && PySequence_DelSlice(g->seq[u], g->len[u], g->room[u]) < 0)
            rc = -1;
    return rc;
}

/* Neighbour i of node u, or -1 with an exception set where the array
 * holds no node of the graph. */
static inline long
neighbour(const Graph *g, Py_ssize_t u, Py_ssize_t i)
{
    long x = g->words[u][i];

    if (x < g->n)
        return x;
    PyErr_Format(PyExc_ValueError, "node %zd has a neighbour out of range", u);
    return -1;
}

/* Raise gossip_sim.<module>.<name>(arg); steals arg. */
static void
raise_named(const char *module, const char *name, PyObject *arg)
{
    PyObject *mod, *cls = NULL, *exc = NULL;

    if (arg != NULL && (mod = PyImport_ImportModule(module)) != NULL) {
        cls = PyObject_GetAttrString(mod, name);
        Py_DECREF(mod);
    }
    if (cls != NULL && (exc = PyObject_CallOneArg(cls, arg)) != NULL)
        PyErr_SetObject(cls, exc);
    Py_XDECREF(arg);
    Py_XDECREF(cls);
    Py_XDECREF(exc);
}

/* process._check_degree_doubling: no node gains more edges in a round than
 * it had at its start.  gain is n zeros and is left so. */
static int
check_doubling(const Graph *g, const int *queue, Py_ssize_t ends, int *gain)
{
    Py_ssize_t i;
    int bad = -1, by = 0;

    for (i = 0; i < ends; i++)
        gain[queue[i]]++;
    /* the first offender in the order the nodes first gain, as the dict has it */
    for (i = 0; i < ends && bad < 0; i++)
        if (gain[queue[i]] > g->len[queue[i]])
            bad = queue[i], by = gain[bad];
    for (i = 0; i < ends; i++)
        gain[queue[i]] = 0;
    if (bad < 0)
        return 0;
    raise_named("gossip_sim.process", "DegreeDoublingViolation",
                PyUnicode_FromFormat("node %d would gain %d edges at degree %zd", bad, by, g->len[bad]));
    return -1;
}

/* Where the rows, the neighbours and the edge count disagree an engine
 * could index past its counts or run out of missing edges short of the
 * target, where the Python engines would draw from an empty list for ever
 * or divide by a cap of 0, and an append could pass n - 1 neighbours. */
static int
disagree(void)
{
    PyErr_SetString(PyExc_ValueError, "the graph's rows, neighbours and edge count disagree");
    return -1;
}

/* array('H', [0]), repeated into the slots reserve adds */
static PyObject *one_slot;

/* Replace array u in _adj by one of n - 1 slots, the most neighbours a
 * node can have, its neighbours first, so that appends write into its
 * buffer from then on.  The new array is allocated to its length, where
 * one lengthened in place would take a sixteenth more. */
static int
reserve(Graph *g, Py_ssize_t u)
{
    PyObject *pad = PySequence_Repeat(one_slot, g->n - 1 - g->len[u]), *wide;

    if (pad == NULL)
        return -1;
    wide = PySequence_Concat(g->seq[u], pad);
    Py_DECREF(pad);
    if (wide == NULL)
        return -1;
    PyList_SET_ITEM(g->adj, u, wide);
    Py_DECREF(g->seq[u]);
    g->seq[u] = wide;
    return refresh(g, u);
}

/* Append v to node u's neighbours. */
static int
append(Graph *g, int u, int v)
{
    if (g->len[u] >= g->room[u]) {
        if (g->len[u] >= g->n - 1)
            return disagree();
        if (reserve(g, u) < 0)
            return -1;
    }
    g->words[u][g->len[u]++] = (uint16_t)v;
    return 0;
}

/* Take k queued edges back out of the rows. */
static void
unqueue(Graph *g, const int *queue, Py_ssize_t k, int directed)
{
    Py_ssize_t i;

    for (i = 0; i < 2 * k; i += 2) {
        g->row[queue[i]][queue[i + 1]] = 0;
        if (!directed)
            g->row[queue[i + 1]][queue[i]] = 0;
    }
}

/* One kernel round: queue its edges, *added of them, in the rows at once
 * and in queue, and check them under tri.  A round that raises leaves the
 * graph as the round found it. */
static int
kernel_round(Graph *g, Twister *s, int tri, int directed, int *queue, Py_ssize_t *added, int *gain)
{
    char **row = g->row;
    Py_ssize_t u, k = 0;
    long v, w;

    for (u = 0; u < g->n; u++) {
        Py_ssize_t d = g->len[u];
        int a, b;

        if (d == 0) {
            if (directed)
                continue;
            raise_named("gossip_sim.graph", "IsolatedNodeError", PyLong_FromSsize_t(u));
            goto undo;
        }
        if (tri) {
            if (d == 1) {
                v = w = neighbour(g, u, 0);
            } else {
                v = neighbour(g, u, below(s, d));
                w = v < 0 ? v : neighbour(g, u, below(s, d));
            }
            if (w < 0)
                goto undo;
            /* the rows hold the snapshot's edges and the queued ones */
            if (v == w || row[v][w])
                continue;
            row[v][w] = row[w][v] = 1;
            a = (int)(v < w ? v : w);
            b = (int)(v < w ? w : v);
        } else {
            Py_ssize_t d2;

            if ((v = neighbour(g, u, d > 1 ? below(s, d) : 0)) < 0)
                goto undo;
            if ((d2 = g->len[v]) == 0)
                continue;
            if ((w = neighbour(g, v, d2 > 1 ? below(s, d2) : 0)) < 0)
                goto undo;
            if (w == u || row[u][w])
                continue;
            row[u][w] = 1;
            if (directed) {
                a = (int)u, b = (int)w;
            } else {
                row[w][u] = 1;
                a = (int)(u < w ? u : w);
                b = (int)(u < w ? w : u);
            }
        }
        queue[2 * k] = a;
        queue[2 * k + 1] = b;
        k++;
    }
    if (tri && check_doubling(g, queue, 2 * k, gain) < 0)
        goto undo;
    *added = k;
    return 0;
undo:
    unqueue(g, queue, k, directed);
    return -1;
}

/* A tail engine as process._Tail keeps it: the number of nodes at each
 * degree and the least positive and the largest degree (the degrees are
 * the graph's lengths), and what was missing when it was built, listed
 * lazily.  _TriTail's keys b n + a of the pairs a < b, in row order, or
 * _HopTail's miss[u], the ids u missed ascending, at miss + start[u] with
 * left[u] of them still listed. */
typedef struct {
    Py_ssize_t *count, low, high, nkeys;
    uint32_t *keys;
    uint16_t *miss;
    Py_ssize_t *start, *left;
} Tail;

static int
open_tail(Tail *t, const Graph *g, int tri)
{
    Py_ssize_t n = g->n, u, w, k = 0, zeros;

    /* the entries to list; each row holds one byte per neighbour */
    for (u = 0; u < n; u++) {
        for (w = zeros = 0; w < n; w++)
            if (!g->row[u][w]) {
                zeros++;
                k += tri ? w > u : w != u;
            }
        if (g->len[u] + zeros != n)
            return disagree();
    }
    t->count = PyMem_Calloc(n + 1, sizeof(Py_ssize_t));
    if (tri) {
        t->keys = PyMem_New(uint32_t, k);
    } else {
        t->miss = PyMem_New(uint16_t, k);
        t->start = PyMem_New(Py_ssize_t, n);
        t->left = PyMem_New(Py_ssize_t, n);
    }
    if (t->count == NULL || (tri ? t->keys == NULL : !t->miss || !t->start || !t->left)) {
        PyErr_NoMemory();
        return -1;
    }
    t->low = n;
    for (k = u = 0; u < n; u++) {
        Py_ssize_t d = g->len[u];

        t->count[d]++;
        if (d && d < t->low)
            t->low = d;
        if (d > t->high)
            t->high = d;
        if (tri) {
            for (w = u + 1; w < n; w++)
                if (!g->row[u][w])
                    t->keys[t->nkeys++] = (uint32_t)(w * n + u);
        } else {
            t->start[u] = k;
            for (w = 0; w < n; w++)
                if (w != u && !g->row[u][w])
                    t->miss[k++] = (uint16_t)w;
            t->left[u] = k - t->start[u];
        }
    }
    return 0;
}

static void
close_tail(Tail *t)
{
    PyMem_Free(t->count);
    PyMem_Free(t->keys);
    PyMem_Free(t->miss);
    PyMem_Free(t->start);
    PyMem_Free(t->left);
}

/* _Tail._grow: a node at degree d has gained an edge. */
static void
grow(Tail *t, Py_ssize_t d)
{
    t->count[d]--;
    t->count[d + 1]++;
    if (d == t->low && !t->count[d])
        t->low = d + 1;
    if (d == t->high)
        t->high = d + 1;
}

/* Write k edges, queued in the rows, into the sequences in queue order
 * and count them, and keep the engine's counts where there is one. */
static int
commit(Graph *g, const int *queue, Py_ssize_t k, int directed, long long *count, Tail *t)
{
    Py_ssize_t i;

    for (i = 0; i < 2 * k; i += 2) {
        if (append(g, queue[i], queue[i + 1]) < 0
            || (!directed && append(g, queue[i + 1], queue[i]) < 0))
            return -1;
        (*count)++;
        if (t != NULL) {
            grow(t, g->len[queue[i]] - 1);
            grow(t, g->len[queue[i + 1]] - 1);
        }
    }
    return 0;
}

/* _TriTail.propose: 1 with the pair a < b in e where u proposes it, 0
 * where it does not, -1 with an exception set. */
static int
propose_tri(const Graph *g, Twister *s, Tail *t, Py_ssize_t u, int *e)
{
    for (;;) {
        Py_ssize_t i;

        if (t->nkeys == 0)
            return disagree();
        i = below(s, t->nkeys);
        e[0] = (int)(t->keys[i] % g->n);
        e[1] = (int)(t->keys[i] / g->n);
        if (!g->row[e[0]][e[1]])
            break;
        t->keys[i] = t->keys[--t->nkeys]; /* joined since: the last key takes its slot */
    }
    return g->row[u][e[0]] && g->row[u][e[1]];
}

/* _HopTail.propose, as propose_tri. */
static int
propose_hop(const Graph *g, Twister *s, Tail *t, Py_ssize_t u, int *e)
{
    const char *row = g->row[u];
    uint16_t *miss = t->miss + t->start[u];
    Py_ssize_t w;
    long v;

    for (;;) {
        Py_ssize_t i;

        if (t->left[u] == 0)
            return disagree();
        i = below(s, t->left[u]);
        if (!row[w = miss[i]])
            break;
        miss[i] = miss[--t->left[u]]; /* joined since: the last id takes its slot */
    }
    if ((v = neighbour(g, w, below(s, g->len[w]))) < 0)
        return -1;
    if (!row[v] || !(uniform(s) * (double)t->high * (double)g->len[v] < (double)(g->len[w] * t->low)))
        return 0;
    e[0] = (int)(u < w ? u : w);
    e[1] = (int)(u < w ? w : u);
    return 1;
}

/* _Tail.draw where the cap is below 1: the number of empty rounds before
 * the next round that adds an edge, with that round's proposals in drawn,
 * *k of them; -1 with an exception set.  The graph is not changed. */
static long long
draw(const Graph *g, Twister *s, Tail *t, int tri, long long missing, double cap, int *drawn, Py_ssize_t *k)
{
    const Py_ssize_t n = g->n;
    const double log_stay = log1p(-cap);
    long long slot = -1, end = 0;

    /* Slots run over (round, node) in order, each a candidate with
     * probability cap; end closes the round of the latest candidate.  A
     * jump past it skips the rounds without one and lands on the next
     * round's first candidate. */
    for (*k = 0;;) {
        Py_ssize_t u, d;
        double bound;
        int e;

        slot += 1 + (long long)(log(1.0 - uniform(s)) / log_stay);
        if (slot >= end) {
            if (*k)
                return end / n - 1;
            end = slot - slot % n + n;
        }
        u = (Py_ssize_t)(slot % n);
        d = g->len[u];
        bound = tri ? (double)(2 * missing) / (double)(d * d)
                    : (double)((n - 1 - d) * t->high) / (double)(d * t->low);
        if (!(uniform(s) * cap < bound))
            continue;
        if ((e = (tri ? propose_tri : propose_hop)(g, s, t, u, drawn + 2 * *k)) < 0)
            return -1;
        *k += e;
    }
}

static PyObject *
rounds(PyObject *Py_UNUSED(module), PyObject *args)
{
    PyObject *graph, *rng, *state = NULL, *count_obj = NULL;
    int tri, directed;
    Py_ssize_t budget, n, ran = 0, added = 0, i, j, k;
    long long target, count = 0, start, skip;
    double share;
    int *queue = NULL, *gain = NULL, failed = 1;
    Twister s;
    Graph g;
    Tail t;

    if (!PyArg_ParseTuple(args, "OOppndL:rounds", &graph, &rng, &tri, &directed, &budget, &share, &target))
        return NULL;
    if (budget < 1) {
        PyErr_SetString(PyExc_ValueError, "budget must be at least 1");
        return NULL;
    }
    if (tri && directed) {
        PyErr_SetString(PyExc_ValueError, "no process runs triangulation on a digraph");
        return NULL;
    }
    if (open_graph(&g, graph) < 0) {
        close_graph(&g);
        return NULL;
    }
    n = g.n;
    if ((count_obj = PyObject_GetAttrString(graph, "edge_count")) == NULL
        || ((start = count = PyLong_AsLongLong(count_obj)) == -1 && PyErr_Occurred())) {
        Py_XDECREF(count_obj);
        close_graph(&g);
        return NULL;
    }
    Py_DECREF(count_obj);
    memset(&t, 0, sizeof t);
    /* a round queues at most one edge per node, an engine round too */
    queue = PyMem_New(int, 2 * n);
    gain = PyMem_Calloc(n, sizeof(int));
    if (queue == NULL || gain == NULL) {
        PyErr_NoMemory();
        goto exit;
    }
    if (read_state(rng, &s, &state) < 0)
        goto exit;

    /* the kernel rounds, to the first that adds fewer than share * n edges */
    do {
        if (kernel_round(&g, &s, tri, directed, queue, &added, gain) < 0
            || commit(&g, queue, added, directed, &count, NULL) < 0)
            goto exit;
        ran++;
    } while (ran < budget && count < target && (double)added >= share * (double)n);

    /* an undirected run goes on in its engine, as run_to_convergence's does */
    if (!directed && ran < budget && count < target) {
        if (open_tail(&t, &g, tri) < 0)
            goto exit;
        do {
            long long missing = (long long)n * (n - 1) / 2 - count;
            double cap = tri ? (double)(2 * missing) / (double)(t.low * t.low)
                             : (double)((n - 1 - t.low) * t.high) / (double)(t.low * t.low);

            if (!(cap > 0.0)) { /* complete, yet short of target */
                disagree();
                goto exit;
            }
            if (cap >= 1.0) { /* no slot could be skipped: a kernel round */
                if (kernel_round(&g, &s, tri, 0, queue, &added, gain) < 0
                    || commit(&g, queue, added, 0, &count, &t) < 0)
                    goto exit;
            } else {
                if ((skip = draw(&g, &s, &t, tri, missing, cap, queue, &k)) < 0)
                    goto exit;
                /* into the rows after the last candidate: a pair proposed
                 * twice joins once, at its first place */
                for (i = j = 0; i < 2 * k; i += 2)
                    if (!g.row[queue[i]][queue[i + 1]]) {
                        g.row[queue[i]][queue[i + 1]] = g.row[queue[i + 1]][queue[i]] = 1;
                        queue[2 * j] = queue[i];
                        queue[2 * j + 1] = queue[i + 1];
                        j++;
                    }
                if (tri && check_doubling(&g, queue, 2 * j, gain) < 0) {
                    unqueue(&g, queue, j, 0);
                    goto exit;
                }
                if (skip >= budget - ran) { /* drawn past the cap, not applied */
                    unqueue(&g, queue, j, 0);
                    ran = budget;
                    break;
                }
                ran += (Py_ssize_t)skip;
                if (commit(&g, queue, j, 0, &count, &t) < 0)
                    goto exit;
            }
            ran++;
        } while (ran < budget && count < target);
    }
    failed = 0;

exit:
    /* the rounds run, or the ones before an error, stay applied and drawn */
    {
        PyObject *type, *value, *trace;

        PyErr_Fetch(&type, &value, &trace);
        if (cut_back(&g) < 0)
            failed = 1;
        if (count != start) {
            PyObject *c = PyLong_FromLongLong(count);
            if (c == NULL || PyObject_SetAttrString(graph, "edge_count", c) < 0)
                failed = 1;
            Py_XDECREF(c);
        }
        if (state != NULL && write_state(rng, &s, state) < 0)
            failed = 1;
        if (type != NULL)
            PyErr_Restore(type, value, trace);
    }
    Py_XDECREF(state);
    PyMem_Free(queue);
    PyMem_Free(gain);
    close_tail(&t);
    close_graph(&g);
    return failed ? NULL : PyLong_FromSsize_t(ran);
}

static PyMethodDef methods[] = {
    {"rounds", rounds, METH_VARARGS,
     "rounds(g, rng, tri, directed, budget, share, target) -> ran\n\n"
     "Run kernel rounds on g from rng's stream: triangulation where tri is\n"
     "true, else the two-hop walk, on a digraph where directed is true\n"
     "(refused with tri).\n"
     "Stops after budget rounds, after the round that takes g's edge count\n"
     "to target, or after the first round that adds fewer than share * n\n"
     "edges.  An undirected run does not stop there: it runs on in the\n"
     "kind's tail engine, as run_to_convergence does, to target or budget,\n"
     "and a skip past budget counts budget rounds and adds nothing.\n"
     "Returns the rounds run, skipped ones included."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "gossip_sim._kernel",
    .m_doc = "Kernel rounds and undirected tail engines of gossip_sim.process, compiled.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__kernel(void)
{
    PyObject *array = PyImport_ImportModule("array");

    if (array == NULL)
        return NULL;
    if (one_slot == NULL)
        one_slot = PyObject_CallMethod(array, "array", "s[i]", "H", 0);
    Py_DECREF(array);
    return one_slot == NULL ? NULL : PyModule_Create(&kernel_module);
}
