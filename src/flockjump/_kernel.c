/*
 * Compiled loops of flockjump: the event loop of the bounded and exponential
 * engines (flockjump.sim) and the explicit Euler step of the mean-field PDE
 * (flockjump.mean_field).
 *
 * Event loop.  Python draws every random number, in each engine's one
 * refill in sim.py, and this code consumes the batches.  Each entry point is
 * a step function that sim._drive calls: it runs events until something
 * only Python can do is due, stores the loop state back into the fj_run
 * record and returns the reason (EXIT_*): a batch ran out, an observation
 * time was reached, the horizon or the event cap was hit, or a total was not
 * finite.  The exponential engine selects on a binary sum tree of its
 * weights: fj_exp_rebase builds it before the first event, and the loop
 * calls it again whenever the total has halved and at every resum, so no
 * rebuild returns to Python.
 *
 * Every operation is the one the Python twin (sim._bounded_steps,
 * sim._exponential_steps) performs, in the same order, on IEEE doubles:
 * build with -ffp-contract=off and without -ffast-math, so that no
 * multiply-add is fused.  exp and atan are the libm functions that math.exp
 * and math.atan call, and fsum is CPython's math.fsum, whose result is
 * correctly rounded and therefore unique.  The event log, the final state
 * and the observer's view are then bit-identical to the Python twin's.
 *
 * PDE step.  fj_pde runs whole Euler steps of the numpy loop in
 * mean_field.py, one pass over the grid each, until Python has to track the
 * window, record a sample or raise.  It is exact to a tolerance, not to the
 * bit: numpy's vectorized exp and arctan, np.interp's formula and
 * np.trapezoid's pairwise sum round differently from libm and a running sum.
 */

#include <math.h>
#include <stdint.h>

enum {
    EXIT_CAP,             /* events reached max_events */
    EXIT_HORIZON,         /* the next event falls after the horizon; t = horizon */
    EXIT_BATCH,           /* the batch is used up, at the start of an event */
    EXIT_OBSERVE_BEFORE,  /* next_obs < value = the next event time */
    EXIT_OBSERVE_AT,      /* an event landed exactly on next_obs */
    EXIT_RATE_STALL,      /* value = the total jump rate, not finite and positive */
    EXIT_WEIGHT_STALL,    /* value = the rebased weight total, not finite and positive */
    EXIT_EXP_RANGE,       /* exp overflowed: math.exp raises OverflowError */
    EXIT_FSUM_INF,        /* math.fsum raises ValueError("-inf + inf in fsum") */
    EXIT_FSUM_OVERFLOW,   /* math.fsum raises OverflowError */
};

/* RATE_EXPONENTIAL has no thinning engine (its sup is infinite): fj_pde only. */
enum { RATE_STEP, RATE_PIECEWISE_LINEAR, RATE_ARCCOT, RATE_TABULATED, RATE_EXPONENTIAL };

/* Mirrored field by field by kernel.Run. */
typedef struct {
    /* run constants */
    int64_t n;
    double inv_n;
    double horizon;             /* +inf without a horizon */
    int64_t max_events;         /* -1 without a cap */
    int64_t resum_interval;
    int32_t family;             /* bounded: RATE_* */
    const double *rate_params;  /* bounded: see rate() */
    int64_t n_rate_params;
    double a, lam;              /* bounded: sup w and the proposal rate n a */
    double beta;                /* exponential */
    /* state */
    double *pos;
    double t, m;
    int64_t events, proposals;
    double next_obs;            /* +inf when nothing is left to observe */
    /* batches drawn in Python: one entry per proposal (bounded) or event */
    const double *waits, *lengths;
    const double *uniforms;     /* bounded: acceptance; exponential: selection */
    const int64_t *targets;     /* bounded: proposed particle */
    int64_t batch, cursor;
    /* exponential: a sum tree with leaves tree[leaves + k] = exp(-beta (x_k -
       ref)), 0 on the padding, and tree[j] = tree[2j] + tree[2j+1] above them;
       tree[1] is the total, S0 its value at the last rebase */
    double *tree;
    int64_t leaves;             /* a power of two >= n */
    double S0, ref;
    /* event-log chunk, written from 0 each call; log_t == NULL: no log */
    double *log_t, *log_z, *log_m;
    int64_t *log_i;
    int64_t log_len;
    double value;               /* detail of the exit, see EXIT_* */
} fj_run;

/* Non-overlapping partials occupy distinct bits of the 2098 binary places of
   a double (2^-1074 .. 2^1023), so there are never more than 2098. */
#define FSUM_PARTIALS 2100

/* CPython's math.fsum (Modules/mathmodule.c): Shewchuk's exact partials,
   then the correctly rounded sum, ties to even across partials.  Returns 0,
   or the EXIT_FSUM_* code of the exception math.fsum raises. */
static int fsum(const double *xs, int64_t len, double *out)
{
    double p[FSUM_PARTIALS];
    int64_t i, j, k, n = 0;
    double x, y, t, hi, yr, lo = 0.0, xsave, special_sum = 0.0, inf_sum = 0.0;

    for (k = 0; k < len; k++) {
        x = xs[k];
        xsave = x;
        for (i = j = 0; j < n; j++) {
            y = p[j];
            if (fabs(x) < fabs(y)) {
                t = x;
                x = y;
                y = t;
            }
            hi = x + y;
            yr = hi - x;
            lo = y - yr;
            if (lo != 0.0)
                p[i++] = lo;
            x = hi;
        }
        n = i;
        if (x != 0.0) {
            if (!isfinite(x)) {
                /* from intermediate overflow, or from an inf or nan summand */
                if (isfinite(xsave))
                    return EXIT_FSUM_OVERFLOW;
                if (isinf(xsave))
                    inf_sum += xsave;
                special_sum += xsave;
                n = 0;
            } else {
                p[n++] = x;
            }
        }
    }
    if (special_sum != 0.0) {
        if (isnan(inf_sum))
            return EXIT_FSUM_INF;
        *out = special_sum;
        return 0;
    }
    hi = 0.0;
    if (n > 0) {
        hi = p[--n];
        while (n > 0) {
            x = hi;
            y = p[--n];
            hi = x + y;
            yr = hi - x;
            lo = y - yr;
            if (lo != 0.0)
                break;
        }
        if (n > 0 && ((lo < 0.0 && p[n - 1] < 0.0) || (lo > 0.0 && p[n - 1] > 0.0))) {
            y = lo * 2.0;
            x = hi + y;
            yr = x - hi;
            if (y == yr)
                hi = x;
        }
    }
    *out = hi;
    return 0;
}

int fj_fsum(const double *xs, int64_t len, double *out)
{
    return fsum(xs, len, out);
}

/* libm exp, with the overflow that makes math.exp raise reported in *range. */
static double checked_exp(double x, int *range)
{
    double e = exp(x);
    if (isinf(e) && isfinite(x))
        *range = 1;
    return e;
}

/* w(d), operation for operation as the family's scalar_rate() in model.py:
   step (a, b); piecewise linear (a, b, mid, slope); arccot (pi/2);
   tabulated (grid[k], values[k]); exponential (beta, EXP_CLAMP), as
   ExponentialRate.rate: exp(-clip(beta d, -EXP_CLAMP, EXP_CLAMP)). */
static inline double rate(int32_t family, const double *p, int64_t n_params, double d)
{
    switch (family) {
    case RATE_STEP:
        return d < 0.0 ? p[0] : p[1];
    case RATE_PIECEWISE_LINEAR:
        if (d < -1.0)
            return p[0];
        if (d > 1.0)
            return p[1];
        return p[2] - p[3] * d;
    case RATE_ARCCOT:
        return p[0] - atan(d);
    case RATE_EXPONENTIAL: {
        double z = p[0] * d;
        if (z < -p[1])
            z = -p[1];
        else if (z > p[1])
            z = p[1];
        return exp(-z);
    }
    default: {  /* RATE_TABULATED */
        int64_t k = n_params / 2, lo = 0, hi = k;
        const double *g = p, *v = p + k;
        if (d <= g[0])
            return v[0];
        if (d >= g[k - 1])
            return v[k - 1];
        if (d != d)
            return d;   /* nan in, nan out, as in Python */
        while (lo < hi) {   /* bisect_left */
            int64_t mid = (lo + hi) / 2;
            if (g[mid] < d)
                lo = mid + 1;
            else
                hi = mid;
        }
        return v[lo - 1] + (v[lo] - v[lo - 1]) * (d - g[lo - 1]) / (g[lo] - g[lo - 1]);
    }
    }
}

static void log_event(fj_run *r, double t, int64_t i, double z, double m)
{
    if (r->log_t) {
        int64_t k = r->log_len++;
        r->log_t[k] = t;
        r->log_i[k] = i;
        r->log_z[k] = z;
        r->log_m[k] = m;
    }
}

int fj_bounded(fj_run *r)
{
    double *pos = r->pos;
    double t = r->t, m = r->m;
    int64_t events = r->events, proposals = r->proposals, c = r->cursor;
    int code;

    for (;;) {
        if (r->max_events >= 0 && events >= r->max_events) {
            code = EXIT_CAP;
            break;
        }
        if (c >= r->batch) {
            code = EXIT_BATCH;
            break;
        }
        double t_next = t + r->waits[c] / r->lam;
        if (t_next > r->horizon) {
            t = r->horizon;
            code = EXIT_HORIZON;
            break;
        }
        if (r->next_obs < t_next) {
            r->value = t_next;
            code = EXIT_OBSERVE_BEFORE;
            break;
        }
        t = t_next;
        int64_t i = r->targets[c];
        int accepted = r->uniforms[c] * r->a
            <= rate(r->family, r->rate_params, r->n_rate_params, pos[i] - m);
        if (accepted) {
            double z = r->lengths[c];
            pos[i] += z;
            m += z * r->inv_n;
            events++;
            if (events % r->resum_interval == 0) {
                double s;
                code = fsum(pos, r->n, &s);
                if (code)
                    break;
                m = s * r->inv_n;
            }
            log_event(r, t, i, z, m);
        }
        proposals++;
        c++;
        if (accepted && t == r->next_obs) {
            code = EXIT_OBSERVE_AT;
            break;
        }
    }
    r->t = t;
    r->m = m;
    r->events = events;
    r->proposals = proposals;
    r->cursor = c;
    return code;
}

/* Rebase the exponential engine's tree to ref = m: recompute every leaf and
   then every parent.  An overflow, caught as OverflowError in Python, makes
   the total infinite. */
int fj_exp_rebase(fj_run *r)
{
    double *tree = r->tree;
    const int64_t P = r->leaves;
    int range = 0;
    r->ref = r->m;
    for (int64_t k = 0; k < r->n && !range; k++)
        tree[P + k] = checked_exp(-r->beta * (r->pos[k] - r->ref), &range);
    for (int64_t j = P - 1; j >= 1 && !range; j--)
        tree[j] = tree[2 * j] + tree[2 * j + 1];
    double S0 = range ? INFINITY : tree[1];
    if (!(S0 > 0.0 && isfinite(S0))) {
        r->value = S0;
        return EXIT_WEIGHT_STALL;
    }
    r->S0 = S0;
    return 0;
}

int fj_exponential(fj_run *r)
{
    double *pos = r->pos, *tree = r->tree;
    const int64_t P = r->leaves;
    const double beta = r->beta;
    double t = r->t;
    int64_t events = r->events, c = r->cursor;
    int code;

    for (;;) {
        if (r->max_events >= 0 && events >= r->max_events) {
            code = EXIT_CAP;
            break;
        }
        if (c >= r->batch) {
            code = EXIT_BATCH;
            break;
        }
        int range = 0;
        double S = tree[1];
        double R = S * checked_exp(beta * (r->m - r->ref), &range);
        if (range) {
            code = EXIT_EXP_RANGE;
            break;
        }
        if (!(R > 0.0 && isfinite(R))) {
            r->value = R;
            code = EXIT_RATE_STALL;
            break;
        }
        double t_next = t + r->waits[c] / R;
        if (t_next > r->horizon) {
            t = r->horizon;
            code = EXIT_HORIZON;
            break;
        }
        if (r->next_obs < t_next) {
            r->value = t_next;
            code = EXIT_OBSERVE_BEFORE;
            break;
        }
        t = t_next;
        /* descend to the leaf whose share of [0, S) holds U*S, never into a
           subtree of total 0 (padding, underflowed leaves, round-off) */
        double target = r->uniforms[c] * S;
        int64_t j = 1;
        while (j < P) {
            j *= 2;
            if (target >= tree[j] && tree[j + 1] > 0.0) {
                target -= tree[j];
                j++;
            }
        }
        int64_t i = j - P;
        double z = r->lengths[c];
        c++;
        pos[i] += z;
        r->m += z * r->inv_n;
        /* pos[i] only grew, so this exp cannot overflow */
        tree[j] = exp(-beta * (pos[i] - r->ref));
        for (j /= 2; j >= 1; j /= 2)
            tree[j] = tree[2 * j] + tree[2 * j + 1];
        events++;
        int due = tree[1] < 0.5 * r->S0;
        if (events % r->resum_interval == 0) {
            double s;
            code = fsum(pos, r->n, &s);
            if (code)
                break;
            r->m = s * r->inv_n;
            due = 1;
        }
        log_event(r, t, i, z, r->m);
        if (due) {
            code = fj_exp_rebase(r);
            if (code)
                break;
        }
        if (t == r->next_obs) {
            code = EXIT_OBSERVE_AT;
            break;
        }
    }
    r->t = t;
    r->events = r->proposals = events;     /* every proposal is an event */
    r->cursor = c;
    return code;
}

/* Exits of fj_pde. */
enum {
    PDE_STEPS,      /* the requested steps ran */
    PDE_SHIFT,      /* the window is due to shift; the step is done */
    PDE_UNSTABLE,   /* dt > 0.5 / w(grid[0] - m) before a step; value = that w */
    PDE_NOT_FINITE, /* the mass or the mean after a step is not finite */
};

/* Mirrored field by field by kernel.Pde. */
typedef struct {
    int32_t family;             /* RATE_* */
    const double *rate_params;
    int64_t n_rate_params;
    const double *grid;
    double *values;             /* updated in place */
    int64_t len;
    double dt, h;
    double r, w0, c1;           /* jump kernel: mean_field._exp_kernel(h) */
    double offset0;             /* the shift is due once (m - grid[0] - offset0) / h >= 1 */
    int64_t steps;              /* run at most this many steps */
    double mass, m;             /* trapezoid mass and mean of values, after each step */
    int64_t done;               /* steps this call ran */
    double value;               /* detail of the exit, see PDE_* */
} fj_pde_run;

/* Euler steps of d rho/dt = J(s) - s with s = w(x - m) rho, where J spreads
   s by the geometric node weights W_0 = w0, W_d = c1 r^(d-1): one pass per
   step computes s, the tail sum of J by its recursion, the update in place
   and the trapezoid mass and first moment that give the next m. */
int fj_pde(fj_pde_run *p)
{
    const int32_t family = p->family;
    const double *params = p->rate_params, *g = p->grid;
    const int64_t n_params = p->n_rate_params, len = p->len;
    const double dt = p->dt, r = p->r, w0 = p->w0, c1 = p->c1;
    double *v = p->values;
    double m = p->m, mass = p->mass;
    int64_t k;
    int code = PDE_STEPS;

    for (k = 0; k < p->steps; k++) {
        double wmax = rate(family, params, n_params, g[0] - m);
        if (dt > 0.5 / wmax) {
            p->value = wmax;
            code = PDE_UNSTABLE;
            break;
        }
        /* tail_j = sum_{d >= 1} r^(d-1) s_(j-d) = s_(j-1) + r tail_(j-1) */
        double tail = 0.0, s_prev = 0.0, v_prev = 0.0, gv_prev = 0.0;
        double sum0 = 0.0, sum1 = 0.0;
        for (int64_t j = 0; j < len; j++) {
            double s = rate(family, params, n_params, g[j] - m) * v[j];
            tail = s_prev + r * tail;
            double vj = v[j] + dt * ((w0 * s + c1 * tail) - s);
            double gv = g[j] * vj;
            if (j) {
                double d = g[j] - g[j - 1];
                sum0 += d * (vj + v_prev);
                sum1 += d * (gv + gv_prev);
            }
            v[j] = vj;
            s_prev = s;
            v_prev = vj;
            gv_prev = gv;
        }
        mass = 0.5 * sum0;
        m = 0.5 * sum1 / mass;
        if (!(isfinite(mass) && isfinite(m))) {
            k++;
            code = PDE_NOT_FINITE;
            break;
        }
        if ((m - g[0] - p->offset0) / p->h >= 1.0) {
            k++;
            code = PDE_SHIFT;
            break;
        }
    }
    p->mass = mass;
    p->m = m;
    p->done = k;
    return code;
}
