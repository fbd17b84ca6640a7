/* The CPython binding of the compiled row sweep: the extension module
 * majpop._sweep, built from this file and _sweep.c by _speedups, which
 * alone calls its one function, solve.
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
 * The entries are converted in order (the profile, the row counts, the
 * caps' length, the caps) and the first refusal returns, so _speedups
 * names the first cause.  A cap above the int64 range never binds, and
 * becomes m.  An entry that is not an int raises TypeError.  delta must
 * be +1 or -1 and policy a POLICY_* code of _sweep.c: _speedups checks
 * both before the call.  The seed is taken mod 2**64.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <stdint.h>
#include <string.h>

/* _sweep.c */
int majpop_solve_rounds(int64_t *values, const int64_t *row_counts, uint8_t *matrix,
                        const int64_t *caps, int64_t *frame, uint64_t seed);

#define STATUS_STRANDED 1
#define STATUS_VALUES_OVERFLOW 5
#define STATUS_ROWS_OVERFLOW 6
#define STATUS_CAPS_LENGTH 7
#define STATUS_CAPS_OVERFLOW 8

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

static PyObject *solve(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *values_seq = NULL, *rows_seq = NULL, *caps_seq = NULL;
    PyObject *matrix = NULL, *profile = NULL, *result = NULL;
    int64_t *buffer = NULL, *values, *rows, *caps = NULL, frame[7];
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
    values_seq = PySequence_Fast(args[0], "the profile must be a sequence");
    if (values_seq == NULL)
        goto done;
    rows_seq = PySequence_Fast(args[1], "the row counts must be a sequence");
    if (rows_seq == NULL)
        goto done;
    if (args[2] != Py_None) {
        caps_seq = PySequence_Fast(args[2], "the caps must be a sequence");
        if (caps_seq == NULL)
            goto done;
    }
    n = PySequence_Fast_GET_SIZE(values_seq);
    m = PySequence_Fast_GET_SIZE(rows_seq);
    buffer = PyMem_New(int64_t, (size_t)n * (caps_seq == NULL ? 1 : 2) + (size_t)m);
    if (buffer == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    values = buffer;
    rows = buffer + n;

    status = convert(values_seq, values, n, -1);
    if (status == 1)
        status = STATUS_VALUES_OVERFLOW;
    if (status == 0) {
        status = convert(rows_seq, rows, m, -1);
        if (status == 1)
            status = STATUS_ROWS_OVERFLOW;
    }
    if (status == 0 && caps_seq != NULL) {
        caps = rows + m;
        if (PySequence_Fast_GET_SIZE(caps_seq) != n)
            status = STATUS_CAPS_LENGTH;
        else if ((status = convert(caps_seq, caps, n, m)) == 1)
            status = STATUS_CAPS_OVERFLOW;
    }
    if (status < 0)
        goto done;
    if (status > 0) {
        result = refused(status);
        goto done;
    }

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
    status = majpop_solve_rounds(values, rows, cells, caps, frame, seed);
    Py_END_ALLOW_THREADS
    if (status == STATUS_STRANDED) {
        result = Py_BuildValue("(iLL)", status, (long long)rows[frame[5]], (long long)frame[6]);
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
        PyObject *v = PyLong_FromLongLong(values[j]);
        if (v == NULL)
            goto done;
        PyTuple_SET_ITEM(profile, j, v);
    }
    result = Py_BuildValue("(iOO)", 0, profile, matrix);

done:
    Py_XDECREF(profile);
    Py_XDECREF(matrix);
    Py_XDECREF(values_seq);
    Py_XDECREF(rows_seq);
    Py_XDECREF(caps_seq);
    PyMem_Free(buffer);
    return result;
}

static PyMethodDef methods[] = {
    {"solve", (PyCFunction)(void (*)(void))solve, METH_FASTCALL,
     "solve(values, row_counts, caps, take_largest, delta, policy, seed): run every row."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef sweep_module = {
    PyModuleDef_HEAD_INIT, "majpop._sweep", "The compiled row sweep.", -1, methods,
    NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC PyInit__sweep(void)
{
    return PyModule_Create(&sweep_module);
}
