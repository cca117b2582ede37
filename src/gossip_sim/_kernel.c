/* The node loops of gossip_sim.process's triangulation_round and
 * twohop_round, run for consecutive rounds in one call.
 *
 * rounds() draws the Mersenne Twister words (Matsumoto and Nishimura 1998)
 * that the Python kernels draw from the same random.Random: it reads the
 * generator's state once by getstate() and writes it back once by
 * setstate().  It reads the graph's neighbour sequences in place, lists
 * or array('H') buffers, sets a queued edge's bytes in the rows at once,
 * and appends a round's edges to the sequences at the end of the round in
 * queue order, as _apply does.  The Python kernels define the semantics;
 * tests hold this file to them round by round and by their pinned counts.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
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

/* The kernels' draw for 2 <= d < 2**32: getrandbits(k) with
 * k = d.bit_length() until a value falls below d, where getrandbits(k) for
 * k <= 32 is the top k bits of one word. */
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

/* The graph as the kernels read it: the neighbour sequences (borrowed
 * from _adj), their 2-byte buffers where they are arrays, their lengths
 * and the rows' bytes. */
typedef struct {
    Py_ssize_t n;
    PyObject **seq;
    const uint16_t **words;
    Py_ssize_t *len;
    char **row;
    PyObject *append; /* array.append, for array storage */
} Graph;

/* Point g at the buffer of array u as it is now; the pointer holds until
 * the array grows, which only this file does while a call runs. */
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
    g->words[u] = (const uint16_t *)view.buf;
    g->len[u] = view.len / 2;
    PyBuffer_Release(&view);
    return 0;
}

static int
open_graph(Graph *g, PyObject *graph)
{
    PyObject *adj = NULL, *rows = NULL;
    Py_ssize_t u, n;
    int arrays, rc = -1;

    memset(g, 0, sizeof *g);
    adj = PyObject_GetAttrString(graph, "_adj");
    rows = PyObject_GetAttrString(graph, "_rows");
    if (adj == NULL || rows == NULL)
        goto done;
    if (!PyList_Check(adj) || !PyList_Check(rows) || PyList_GET_SIZE(adj) != PyList_GET_SIZE(rows)
        || PyList_GET_SIZE(adj) < 1) {
        PyErr_SetString(PyExc_TypeError, "_adj and _rows must be lists of one entry per node");
        goto done;
    }
    g->n = n = PyList_GET_SIZE(adj);
    arrays = !PyList_Check(PyList_GET_ITEM(adj, 0));
    g->seq = PyMem_New(PyObject *, n);
    g->len = PyMem_New(Py_ssize_t, n);
    g->row = PyMem_New(char *, n);
    g->words = arrays ? PyMem_New(const uint16_t *, n) : NULL;
    if (g->seq == NULL || g->len == NULL || g->row == NULL || (arrays && g->words == NULL)) {
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
        if (arrays) {
            if (refresh(g, u) < 0)
                goto done;
        } else if (PyList_Check(g->seq[u])) {
            g->len[u] = PyList_GET_SIZE(g->seq[u]);
        } else {
            PyErr_SetString(PyExc_TypeError, "neighbours must all be lists or all be arrays");
            goto done;
        }
    }
    if (arrays && (g->append = PyObject_GetAttrString((PyObject *)Py_TYPE(g->seq[0]), "append")) == NULL)
        goto done;
    rc = 0;
done:
    /* _adj and _rows keep their items alive: the graph holds them */
    Py_XDECREF(adj);
    Py_XDECREF(rows);
    return rc;
}

static void
close_graph(Graph *g)
{
    PyMem_Free(g->seq);
    PyMem_Free(g->len);
    PyMem_Free(g->row);
    PyMem_Free((void *)g->words);
    Py_XDECREF(g->append);
}

/* Neighbour i of node u, or -1 with an exception set where the sequence
 * holds no node of the graph. */
static inline long
neighbour(const Graph *g, Py_ssize_t u, Py_ssize_t i)
{
    long x = g->words ? g->words[u][i] : PyLong_AsLong(PyList_GET_ITEM(g->seq[u], i));

    if ((unsigned long)x < (unsigned long)g->n)
        return x;
    if (!PyErr_Occurred())
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

/* Append v to node u's neighbours. */
static int
append(Graph *g, int u, int v)
{
    PyObject *x = PyLong_FromLong(v), *done = NULL;
    int rc;

    if (x == NULL)
        return -1;
    if (g->words == NULL) {
        rc = PyList_Append(g->seq[u], x);
    } else {
        PyObject *args[2] = {g->seq[u], x};
        done = PyObject_Vectorcall(g->append, args, 2, NULL);
        rc = done == NULL ? -1 : 0;
        Py_XDECREF(done);
    }
    Py_DECREF(x);
    if (rc == 0)
        g->len[u]++;
    return rc;
}

static PyObject *
rounds(PyObject *module, PyObject *args)
{
    PyObject *graph, *rng, *state = NULL, *count_obj = NULL, *result = NULL;
    int tri, directed;
    Py_ssize_t budget, n, ran = 0, added = 0, u, i;
    long long target, count = 0, start;
    double share;
    int *queue = NULL, *gain = NULL, failed = 1;
    Twister s;
    Graph g;

    if (!PyArg_ParseTuple(args, "OOppndL:rounds", &graph, &rng, &tri, &directed, &budget, &share, &target))
        return NULL;
    if (budget < 1) {
        PyErr_SetString(PyExc_ValueError, "budget must be at least 1");
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
    /* a round queues at most one edge per node */
    queue = PyMem_New(int, 2 * n);
    gain = PyMem_Calloc(n, sizeof(int));
    if (queue == NULL || gain == NULL) {
        PyErr_NoMemory();
        goto exit;
    }
    if (read_state(rng, &s, &state) < 0)
        goto exit;

    for (;;) {
        char **row = g.row;
        long v, w;

        added = 0;
        for (u = 0; u < n; u++) {
            Py_ssize_t d = g.len[u];
            int a, b;

            if (d == 0) {
                if (directed)
                    continue;
                raise_named("gossip_sim.graph", "IsolatedNodeError", PyLong_FromSsize_t(u));
                goto unqueue;
            }
            if (tri) {
                if (d == 1) {
                    v = w = neighbour(&g, u, 0);
                } else {
                    v = neighbour(&g, u, below(&s, d));
                    w = v < 0 ? v : neighbour(&g, u, below(&s, d));
                }
                if (w < 0)
                    goto unqueue;
                /* the rows hold the snapshot's edges and the queued ones */
                if (v == w || row[v][w])
                    continue;
                row[v][w] = row[w][v] = 1;
                a = (int)(v < w ? v : w);
                b = (int)(v < w ? w : v);
            } else {
                Py_ssize_t d2;

                if ((v = neighbour(&g, u, d > 1 ? below(&s, d) : 0)) < 0)
                    goto unqueue;
                if ((d2 = g.len[v]) == 0)
                    continue;
                if ((w = neighbour(&g, v, d2 > 1 ? below(&s, d2) : 0)) < 0)
                    goto unqueue;
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
            queue[2 * added] = a;
            queue[2 * added + 1] = b;
            added++;
        }
        if (tri && check_doubling(&g, queue, 2 * added, gain) < 0)
            goto unqueue;
        /* the round's edges join the sequences in queue order */
        for (i = 0; i < added; i++) {
            if (append(&g, queue[2 * i], queue[2 * i + 1]) < 0
                || (!directed && append(&g, queue[2 * i + 1], queue[2 * i]) < 0))
                goto exit;
            count++;
        }
        if (g.words != NULL)
            for (i = 0; i < 2 * added; i++)
                if (refresh(&g, queue[i]) < 0)
                    goto exit;
        ran++;
        if (ran >= budget || count >= target || (double)added < share * (double)n)
            break;
    }
    failed = 0;
    goto exit;

unqueue:
    /* a round that raises leaves the graph as the round found it */
    for (i = 0; i < added; i++) {
        g.row[queue[2 * i]][queue[2 * i + 1]] = 0;
        if (!directed)
            g.row[queue[2 * i + 1]][queue[2 * i]] = 0;
    }
    added = 0;

exit:
    /* the rounds run, or the ones before an error, stay applied and drawn */
    {
        PyObject *type, *value, *trace;

        PyErr_Fetch(&type, &value, &trace);
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
    if (!failed) {
        PyObject *edges = PyList_New(added);

        for (i = 0; edges != NULL && i < added; i++) {
            PyObject *e = Py_BuildValue("(ii)", queue[2 * i], queue[2 * i + 1]);
            if (e == NULL)
                Py_CLEAR(edges);
            else
                PyList_SET_ITEM(edges, i, e);
        }
        if (edges != NULL)
            result = Py_BuildValue("(nN)", ran, edges);
    }
    Py_XDECREF(state);
    PyMem_Free(queue);
    PyMem_Free(gain);
    close_graph(&g);
    return result;
}

static PyMethodDef methods[] = {
    {"rounds", rounds, METH_VARARGS,
     "rounds(g, rng, tri, directed, budget, share, target) -> (ran, edges)\n\n"
     "Run kernel rounds on g from rng's stream: triangulation where tri is\n"
     "true, else the two-hop walk, on a digraph where directed is true.\n"
     "Stops after budget rounds, after the round that takes g's edge count\n"
     "to target, or after the first round that adds fewer than share * n\n"
     "edges.  Returns the rounds run and the last round's edges in queue\n"
     "order."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "gossip_sim._kernel",
    .m_doc = "Kernel rounds of gossip_sim.process, compiled.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__kernel(void)
{
    return PyModule_Create(&kernel_module);
}
