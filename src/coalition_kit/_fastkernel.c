/* Canonical labeling kernel, compiled backend.
 *
 * Mirrors kernel.py step by step: refine to an ordered partition, counting
 * neighbours only in the freshly split cells, branch on the first
 * non-singleton cell with twin pruning, pack the least upper triangle. The
 * output is byte-identical; see kernel.py for the algorithm notes, why the
 * fresh cells alone give the same codes, and the code layout.
 *
 * Build in place with: python setup.py build_ext --inplace
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <string.h>

#define MAXN 16 /* limits.CANON_MAX */
#define TRI_BYTES ((MAXN * (MAXN - 1) / 2 + 7) / 8)

/* A partition is a vertex array cv[0..n) cut into nc cells: cell k holds
 * cv[cb[k]..cb[k + 1]). */

static int
popcount(unsigned int x)
{
    x -= (x >> 1) & 0x55555555u;
    x = (x & 0x33333333u) + ((x >> 2) & 0x33333333u);
    x = (x + (x >> 4)) & 0x0f0f0f0fu;
    return (int)((x * 0x01010101u) >> 24);
}

/* Split cells by neighbor counts against the fresh cells until stable; the
 * caller's one fresh cell is `splitter`, and a split cell's children but the
 * last are fresh for the next round. A key packs the counts 4 bits each,
 * first fresh cell most significant; there are at most MAXN - 1 fresh cells,
 * so a key fits 60 bits. Subcells are ordered by key, vertices keep their
 * order within a subcell. Works in place and returns the new cell count. */
static int
refine(const unsigned int *rows, int *cv, int *cb, int nc, unsigned int splitter)
{
    unsigned int fresh[MAXN], split[MAXN], m;
    unsigned long long keys[MAXN], key;
    int newcb[MAXN + 1];
    int nfresh = 1, nsplit, newnc, k, f, c, i, j, v, lo, hi, first;

    fresh[0] = splitter;
    while (nfresh > 0) {
        nsplit = 0;
        newnc = 0;
        newcb[0] = 0;
        for (k = 0; k < nc; k++) {
            lo = cb[k];
            hi = cb[k + 1];
            if (hi - lo == 1) {
                newcb[++newnc] = hi;
                continue;
            }
            for (i = lo; i < hi; i++) {
                v = cv[i];
                key = 0;
                for (f = 0; f < nfresh; f++)
                    key = key << 4 | (unsigned long long)popcount(rows[v] & fresh[f]);
                keys[v] = key;
            }
            /* stable insertion sort of the cell by key */
            for (i = lo + 1; i < hi; i++) {
                v = cv[i];
                for (j = i - 1; j >= lo && keys[cv[j]] > keys[v]; j--)
                    cv[j + 1] = cv[j];
                cv[j + 1] = v;
            }
            first = newnc;
            for (i = lo + 1; i <= hi; i++)
                if (i == hi || keys[cv[i - 1]] != keys[cv[i]])
                    newcb[++newnc] = i;
            for (c = first; c < newnc - 1; c++) {
                m = 0;
                for (i = newcb[c]; i < newcb[c + 1]; i++)
                    m |= 1u << cv[i];
                split[nsplit++] = m;
            }
        }
        memcpy(cb, newcb, (newnc + 1) * sizeof(int));
        nc = newnc;
        memcpy(fresh, split, nsplit * sizeof(unsigned int));
        nfresh = nsplit;
    }
    return nc;
}

static void
pack(const unsigned int *rows, int n, const int *order, unsigned char *out)
{
    int i, j, k = 0;
    unsigned int ri;

    memset(out, 0, TRI_BYTES);
    for (i = 0; i < n; i++) {
        ri = rows[order[i]];
        for (j = i + 1; j < n; j++, k++)
            if ((ri >> order[j]) & 1u)
                out[k >> 3] |= (unsigned char)(0x80 >> (k & 7));
    }
}

typedef struct {
    const unsigned int *rows;
    int n;
    int codelen;
    int has_best;
    unsigned char best[TRI_BYTES];
} Search;

static void
search(Search *s, const int *cv, const int *cb, int nc)
{
    int cands[MAXN], cv2[MAXN], cb2[MAXN + 1];
    unsigned char code[TRI_BYTES];
    unsigned int m;
    int idx, ncands = 0, i, j, v, u, lo, hi, pos;

    for (idx = 0; idx < nc && cb[idx + 1] - cb[idx] == 1; idx++)
        ;
    if (idx == nc) {
        pack(s->rows, s->n, cv, code);
        if (!s->has_best || memcmp(code, s->best, s->codelen) < 0) {
            memcpy(s->best, code, s->codelen);
            s->has_best = 1;
        }
        return;
    }
    lo = cb[idx];
    hi = cb[idx + 1];
    /* u, v are interchangeable when swapping them is an automorphism, i.e.
     * their rows agree outside {u, v}: branch on one of them only. */
    for (i = lo; i < hi; i++) {
        v = cv[i];
        for (j = 0; j < ncands; j++) {
            u = cands[j];
            m = ~((1u << u) | (1u << v));
            if ((s->rows[u] & m) == (s->rows[v] & m))
                break;
        }
        if (j == ncands)
            cands[ncands++] = v;
    }
    /* individualize each candidate: cells[:idx] + [[v], rest] + cells[idx+1:] */
    for (j = 0; j < ncands; j++) {
        v = cands[j];
        memcpy(cv2, cv, s->n * sizeof(int));
        pos = lo;
        cv2[pos++] = v;
        for (i = lo; i < hi; i++)
            if (cv[i] != v)
                cv2[pos++] = cv[i];
        memcpy(cb2, cb, (idx + 1) * sizeof(int));
        cb2[idx + 1] = lo + 1;
        memcpy(cb2 + idx + 2, cb + idx + 1, (nc - idx) * sizeof(int));
        search(s, cv2, cb2, refine(s->rows, cv2, cb2, nc + 1, 1u << v));
    }
}

static PyObject *
canonical_code(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    unsigned int rows[MAXN];
    unsigned char full[TRI_BYTES + 1];
    int cv[MAXN], cb[MAXN + 1];
    unsigned long row;
    PyObject *item;
    Search s;
    long order;
    int n, i, overflow;

    if (nargs != 2) {
        PyErr_Format(PyExc_TypeError,
                     "canonical_code() takes exactly 2 arguments (%zd given)", nargs);
        return NULL;
    }
    order = PyLong_AsLongAndOverflow(args[0], &overflow);
    if (order == -1 && PyErr_Occurred())
        return NULL;
    if (overflow || order < 1 || order > MAXN)
        return PyErr_Format(PyExc_ValueError,
                            "canonical labeling supports order 1..CANON_MAX = %d, got %R", MAXN,
                            args[0]);
    n = (int)order;
    full[0] = (unsigned char)n;
    if (n == 1)
        return PyBytes_FromStringAndSize((const char *)full, 1);
    for (i = 0; i < n; i++) {
        item = PySequence_GetItem(args[1], i);
        if (item == NULL)
            return NULL;
        row = PyLong_AsUnsignedLong(item);
        Py_DECREF(item);
        if (row == (unsigned long)-1 && PyErr_Occurred())
            return NULL;
        if (row > 0xffffffffUL) {
            PyErr_SetString(PyExc_OverflowError,
                            "value too large to convert to unsigned int");
            return NULL;
        }
        rows[i] = (unsigned int)row;
    }

    s.rows = rows;
    s.n = n;
    s.codelen = (n * (n - 1) / 2 + 7) / 8;
    s.has_best = 0;
    for (i = 0; i < n; i++)
        cv[i] = i;
    cb[0] = 0;
    cb[1] = n;
    search(&s, cv, cb, refine(rows, cv, cb, 1, (1u << n) - 1));
    memcpy(full + 1, s.best, s.codelen);
    return PyBytes_FromStringAndSize((const char *)full, s.codelen + 1);
}

static PyMethodDef methods[] = {
    {"canonical_code", (PyCFunction)(void (*)(void))canonical_code, METH_FASTCALL,
     "canonical_code($module, n, rows, /)\n--\n\n"
     "Canonical code of the graph given as adjacency bitmask rows."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module_def = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_fastkernel",
    .m_doc = "Canonical labeling kernel, compiled; byte-identical to kernel.py.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__fastkernel(void)
{
    PyObject *m = PyModule_Create(&module_def);
    if (m != NULL && PyModule_AddObjectRef(m, "IS_COMPILED", Py_True) < 0)
        Py_CLEAR(m);
    return m;
}
