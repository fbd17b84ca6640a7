/* The CPython binding of the compiled row sweep and tie search: the
 * extension module majpop._sweep, built from this file and _sweep.c by
 * _speedups, which alone calls its two functions, solve and search.
 *
 * solve(values, row_counts, caps, take_largest, delta, policy, seed) takes
 * the profile, the row counts and the caps (or None) as lists or tuples of
 * ints, converts them to int64 here, allocates the zeroed bytearray matrix
 * and runs majpop_solve_rounds on them once, with the interpreter lock
 * released.  It returns a 3-tuple:
 *
 *   (0, profile, matrix)   the final profile as a tuple of ints, and the
 *                          m * n cells, row-major, as a bytearray;
 *   (1, need, open)        a row that needs need columns was stranded
 *                          with only open columns below their caps;
 *   (status, None, None)   an input refused before anything was written:
 *                          a STATUS_* code of _sweep.c, or one below, or
 *                          -1 when the sweep found no scratch memory.
 *
 * search(values, row_counts, caps, take_largest, delta, budget) converts
 * the same vectors the same way and runs majpop_search_ties, with the
 * interpreter lock released.  It returns:
 *
 *   (0, keys, cells)       the final profiles, a tuple of tuples of ints
 *                          in the order first reached, and their witness
 *                          matrices, count * m * n bytes, row-major;
 *   (9, draws, None)       the distinct states passed the budget after
 *                          draws children (STATUS_BUDGET);
 *   (status, None, None)   as for solve.
 *
 * The entries are converted in order (the profile, the row counts, the
 * caps' length, the caps) and the first refusal returns, so _speedups
 * names the first cause.  A cap above the int64 range never binds, and
 * becomes m; a budget above it becomes the largest int64, and one below
 * it 0.  An entry that is not an int raises TypeError.  delta must be +1
 * or -1 and policy a POLICY_* code of _sweep.c: _speedups checks both
 * before the call.  The seed is taken mod 2**64.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <limits.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* _sweep.c */
int majpop_solve_rounds(int64_t *values, const int64_t *row_counts, uint8_t *matrix,
                        const int64_t *caps, int64_t *frame, uint64_t seed);
int majpop_search_ties(const int64_t *start, const int64_t *row_counts, const int64_t *caps,
                       int64_t *frame, int64_t **keys, uint8_t **cells);

#define STATUS_STRANDED 1
#define STATUS_VALUES_OVERFLOW 5
#define STATUS_ROWS_OVERFLOW 6
#define STATUS_CAPS_LENGTH 7
#define STATUS_CAPS_OVERFLOW 8
#define STATUS_BUDGET 9

/* Convert the first n entries of the list or tuple seq into out.  Returns
 * 0, 1 when an entry lies outside the int64 range, or -1 with an exception
 * set.  With clamp >= 0, an entry above the range becomes clamp instead.
 * An entry that is not an exact int runs its own __index__, which may
 * change a list, so each entry is looked up afresh and held while it
 * converts. */
static int convert(PyObject *seq, int64_t *out, Py_ssize_t n, int64_t clamp)
{
    Py_ssize_t i;
    for (i = 0; i < n; i++) {
        PyObject *item;
        long long v;
        int overflow;
        if (i >= PySequence_Fast_GET_SIZE(seq)) {
            PyErr_SetString(PyExc_RuntimeError, "sequence changed size during conversion");
            return -1;
        }
        item = PySequence_Fast_GET_ITEM(seq, i);
        Py_INCREF(item);
        v = PyLong_AsLongLongAndOverflow(item, &overflow);
        Py_DECREF(item);
        if (overflow > 0 && clamp >= 0)
            v = clamp;
        else if (overflow)
            return 1;
        else if (v == -1 && PyErr_Occurred())
            return -1;
        out[i] = v;
    }
    return 0;
}

static PyObject *refused(int status)
{
    return Py_BuildValue("(iOO)", status, Py_None, Py_None);
}

/* The profile, row counts and caps of one call, as sequences and as int64
 * buffers: values[n], rows[m], and caps[n] or NULL. */
struct inputs {
    PyObject *values_seq, *rows_seq, *caps_seq;
    int64_t *buffer, *values, *rows, *caps;
    Py_ssize_t n, m;
};

/* Convert args[0..3) into in.  Returns 0, a STATUS_* code for the first
 * entry refused, or -1 with an exception set; release(in) either way. */
static int convert_inputs(PyObject *const *args, struct inputs *in)
{
    int status;
    in->values_seq = PySequence_Fast(args[0], "the profile must be a sequence");
    if (in->values_seq == NULL)
        return -1;
    in->rows_seq = PySequence_Fast(args[1], "the row counts must be a sequence");
    if (in->rows_seq == NULL)
        return -1;
    if (args[2] != Py_None) {
        in->caps_seq = PySequence_Fast(args[2], "the caps must be a sequence");
        if (in->caps_seq == NULL)
            return -1;
    }
    in->n = PySequence_Fast_GET_SIZE(in->values_seq);
    in->m = PySequence_Fast_GET_SIZE(in->rows_seq);
    in->buffer = PyMem_New(int64_t, (size_t)in->n * (in->caps_seq == NULL ? 1 : 2) + (size_t)in->m);
    if (in->buffer == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    in->values = in->buffer;
    in->rows = in->buffer + in->n;

    status = convert(in->values_seq, in->values, in->n, -1);
    if (status == 1)
        return STATUS_VALUES_OVERFLOW;
    if (status != 0)
        return status;
    status = convert(in->rows_seq, in->rows, in->m, -1);
    if (status == 1)
        return STATUS_ROWS_OVERFLOW;
    if (status != 0 || in->caps_seq == NULL)
        return status;
    in->caps = in->rows + in->m;
    if (PySequence_Fast_GET_SIZE(in->caps_seq) != in->n)
        return STATUS_CAPS_LENGTH;
    status = convert(in->caps_seq, in->caps, in->n, in->m);
    return status == 1 ? STATUS_CAPS_OVERFLOW : status;
}

static void release(struct inputs *in)
{
    Py_XDECREF(in->values_seq);
    Py_XDECREF(in->rows_seq);
    Py_XDECREF(in->caps_seq);
    PyMem_Free(in->buffer);
}

static PyObject *solve(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    struct inputs in = {0};
    PyObject *matrix = NULL, *profile = NULL, *result = NULL;
    int64_t frame[7];
    uint8_t *cells;
    Py_ssize_t n, m, j;
    long long delta, policy;
    uint64_t seed;
    int take_largest, status;

    (void)module;
    if (nargs != 7) {
        PyErr_Format(PyExc_TypeError, "solve takes 7 arguments, not %zd", nargs);
        return NULL;
    }
    take_largest = PyObject_IsTrue(args[3]);
    if (take_largest < 0)
        return NULL;
    delta = PyLong_AsLongLong(args[4]);
    if (delta == -1 && PyErr_Occurred())
        return NULL;
    policy = PyLong_AsLongLong(args[5]);
    if (policy == -1 && PyErr_Occurred())
        return NULL;
    seed = PyLong_AsUnsignedLongLongMask(args[6]);
    if (seed == (uint64_t)-1 && PyErr_Occurred())
        return NULL;
    status = convert_inputs(args, &in);
    if (status < 0)
        goto done;
    if (status > 0) {
        result = refused(status);
        goto done;
    }
    n = in.n;
    m = in.m;

    if (n > 0 && m > PY_SSIZE_T_MAX / n) {
        PyErr_NoMemory();
        goto done;
    }
    matrix = PyByteArray_FromStringAndSize(NULL, m * n);
    if (matrix == NULL)
        goto done;
    cells = (uint8_t *)PyByteArray_AS_STRING(matrix);
    memset(cells, 0, (size_t)(m * n));
    /* The FRAME_* slots of _sweep.c: n, m, the side, the step and the
     * policy in; a stranded row's index and open count out, in 5 and 6. */
    frame[0] = n;
    frame[1] = m;
    frame[2] = take_largest;
    frame[3] = delta;
    frame[4] = policy;
    frame[5] = frame[6] = 0;
    Py_BEGIN_ALLOW_THREADS
    status = majpop_solve_rounds(in.values, in.rows, cells, in.caps, frame, seed);
    Py_END_ALLOW_THREADS
    if (status == STATUS_STRANDED) {
        result = Py_BuildValue("(iLL)", status, (long long)in.rows[frame[5]], (long long)frame[6]);
        goto done;
    }
    if (status != 0) {
        result = refused(status);
        goto done;
    }

    profile = PyTuple_New(n);
    if (profile == NULL)
        goto done;
    for (j = 0; j < n; j++) {
        PyObject *v = PyLong_FromLongLong(in.values[j]);
        if (v == NULL)
            goto done;
        PyTuple_SET_ITEM(profile, j, v);
    }
    result = Py_BuildValue("(iOO)", 0, profile, matrix);

done:
    Py_XDECREF(profile);
    Py_XDECREF(matrix);
    release(&in);
    return result;
}

/* keys[count * n] as a tuple of count tuples of n ints. */
static PyObject *key_tuples(const int64_t *keys, int64_t count, Py_ssize_t n)
{
    PyObject *all = PyTuple_New((Py_ssize_t)count);
    Py_ssize_t s, j;
    if (all == NULL)
        return NULL;
    for (s = 0; s < count; s++) {
        PyObject *key = PyTuple_New(n);
        if (key == NULL)
            goto fail;
        PyTuple_SET_ITEM(all, s, key);
        for (j = 0; j < n; j++) {
            PyObject *v = PyLong_FromLongLong(keys[s * n + j]);
            if (v == NULL)
                goto fail;
            PyTuple_SET_ITEM(key, j, v);
        }
    }
    return all;
fail:
    Py_DECREF(all);
    return NULL;
}

static PyObject *search(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    struct inputs in = {0};
    PyObject *keys = NULL, *cells = NULL, *result = NULL;
    int64_t frame[7], *found = NULL;
    uint8_t *witnesses = NULL;
    long long delta, budget;
    int take_largest, status, overflow;

    (void)module;
    if (nargs != 6) {
        PyErr_Format(PyExc_TypeError, "search takes 6 arguments, not %zd", nargs);
        return NULL;
    }
    take_largest = PyObject_IsTrue(args[3]);
    if (take_largest < 0)
        return NULL;
    delta = PyLong_AsLongLong(args[4]);
    if (delta == -1 && PyErr_Occurred())
        return NULL;
    budget = PyLong_AsLongLongAndOverflow(args[5], &overflow);
    if (budget == -1 && PyErr_Occurred())
        return NULL;
    if (overflow)
        budget = overflow > 0 ? LLONG_MAX : 0;
    status = convert_inputs(args, &in);
    if (status < 0)
        goto done;
    if (status > 0) {
        result = refused(status);
        goto done;
    }
    /* The FRAME_* slots of _sweep.c: n, m, the side, the step and the
     * budget in; the final count and the draws out, in 5 and 6. */
    frame[0] = in.n;
    frame[1] = in.m;
    frame[2] = take_largest;
    frame[3] = delta;
    frame[4] = budget;
    frame[5] = frame[6] = 0;
    Py_BEGIN_ALLOW_THREADS
    status = majpop_search_ties(in.values, in.rows, in.caps, frame, &found, &witnesses);
    Py_END_ALLOW_THREADS
    if (status == STATUS_BUDGET) {
        result = Py_BuildValue("(iLO)", status, (long long)frame[6], Py_None);
        goto done;
    }
    if (status != 0) {
        result = refused(status);
        goto done;
    }
    keys = key_tuples(found, frame[5], in.n);
    if (keys == NULL)
        goto done;
    cells = PyBytes_FromStringAndSize((const char *)witnesses, (Py_ssize_t)(frame[5] * in.m * in.n));
    if (cells == NULL)
        goto done;
    result = Py_BuildValue("(iOO)", 0, keys, cells);

done:
    Py_XDECREF(keys);
    Py_XDECREF(cells);
    free(found);
    free(witnesses);
    release(&in);
    return result;
}

static PyMethodDef methods[] = {
    {"solve", (PyCFunction)(void (*)(void))solve, METH_FASTCALL,
     "solve(values, row_counts, caps, take_largest, delta, policy, seed): run every row."},
    {"search", (PyCFunction)(void (*)(void))search, METH_FASTCALL,
     "search(values, row_counts, caps, take_largest, delta, budget): resolve every tie."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef sweep_module = {
    PyModuleDef_HEAD_INIT, "majpop._sweep", "The compiled row sweep and tie search.", -1, methods,
    NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC PyInit__sweep(void)
{
    return PyModule_Create(&sweep_module);
}
