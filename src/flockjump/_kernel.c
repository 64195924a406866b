/*
 * Compiled loops of flockjump: the event loop of the bounded and exponential
 * engines (flockjump.sim) and the explicit Euler step of the mean-field PDE
 * (flockjump.mean_field).
 *
 * Event loop.  Python draws every random number, in the order and batch
 * sizes of the Python loops in sim.py, and this code consumes the batches.
 * Each entry point runs events until something only Python can do is due,
 * stores the loop state back into the fj_run record and returns the reason
 * (EXIT_*): a batch ran out, an observation time was reached, a frozen
 * weight table must be rebuilt (np.exp may differ from libm exp in the last
 * ulp), the horizon or the event cap was hit, or a total was not finite.
 *
 * Every operation is the one the Python loop performs, in the same order,
 * on IEEE doubles: build with -ffp-contract=off and without -ffast-math, so
 * that no multiply-add is fused.  exp and atan are the libm functions that
 * math.exp and math.atan call, and fsum is CPython's math.fsum, whose result
 * is correctly rounded and therefore unique.  The event log, the final state
 * and the observer's view are then bit-identical to the Python loop's.
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
    EXIT_BATCH,           /* the wait batch is used up, at the start of an event */
    EXIT_SELECT,          /* the selection batch is used up, inside an event */
    EXIT_OBSERVE_BEFORE,  /* next_obs < value = the next event time */
    EXIT_OBSERVE_AT,      /* an event landed exactly on next_obs */
    EXIT_REBUILD,         /* the frozen table is due for a rebuild; the event is done */
    EXIT_RATE_STALL,      /* value = the total jump rate, not finite and positive */
    EXIT_WEIGHT_STALL,    /* value = the rebuilt weight total, not finite and positive */
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
    int32_t direct;             /* exponential: direct selector (1) or frozen table (0) */
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
    const double *uniforms;     /* bounded: acceptance; direct: selection */
    const int64_t *targets;     /* bounded: proposed particle */
    int64_t batch, cursor;
    /* exponential selection: live weights u = exp(-beta (x - ref)), total S */
    double *u;
    const double *u_frozen, *cum;   /* table path: weights and cumsum at the rebuild */
    double S, S0, ref;
    const double *sel_u, *sel_acc;  /* table path: rng.random() * S0 and thinning draws */
    int64_t sel_batch, sel_cursor;
    int32_t selecting;          /* an event is waiting for selection draws */
    int32_t unused;
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

/* Direct selector's rebuild: rebase the live weights to ref = m and re-sum
   them; an overflow, caught as OverflowError in Python, makes S0 infinite. */
static int rebuild_direct(fj_run *r)
{
    double S0 = INFINITY;
    int range = 0;
    r->ref = r->m;
    for (int64_t k = 0; k < r->n && !range; k++)
        r->u[k] = checked_exp(-r->beta * (r->pos[k] - r->ref), &range);
    if (!range && fsum(r->u, r->n, &S0))
        S0 = INFINITY;
    if (!(S0 > 0.0 && isfinite(S0))) {
        r->value = S0;
        return EXIT_WEIGHT_STALL;
    }
    r->S = r->S0 = S0;
    return 0;
}

int fj_exponential(fj_run *r)
{
    double *pos = r->pos, *u = r->u;
    const int64_t n = r->n, last = n - 1;
    const double beta = r->beta;
    int64_t c = r->cursor, sc = r->sel_cursor;
    int code;

    for (;;) {
        if (!r->selecting) {
            if (r->max_events >= 0 && r->events >= r->max_events) {
                code = EXIT_CAP;
                break;
            }
            if (c >= r->batch) {
                code = EXIT_BATCH;
                break;
            }
            int range = 0;
            double R = r->S * checked_exp(beta * (r->m - r->ref), &range);
            if (range) {
                code = EXIT_EXP_RANGE;
                break;
            }
            if (!(R > 0.0 && isfinite(R))) {
                r->value = R;
                code = EXIT_RATE_STALL;
                break;
            }
            double t_next = r->t + r->waits[c] / R;
            if (t_next > r->horizon) {
                r->t = r->horizon;
                code = EXIT_HORIZON;
                break;
            }
            if (r->next_obs < t_next) {
                r->value = t_next;
                code = EXIT_OBSERVE_BEFORE;
                break;
            }
            r->t = t_next;
            c++;
        }
        int64_t i;
        if (r->direct) {
            /* first index whose running weight sum exceeds U*S (the last on round-off) */
            double target = r->uniforms[c - 1] * r->S, run = u[0];
            i = 0;
            while (run <= target && i < last) {
                i++;
                run += u[i];
            }
            r->proposals++;
        } else {
            /* propose from the frozen table, thin by u_now / u_frozen */
            int ok;
            do {
                if (sc >= r->sel_batch) {
                    r->selecting = 1;
                    code = EXIT_SELECT;
                    goto out;
                }
                int64_t lo = 0, hi = n;     /* searchsorted(cum, sel_u[sc], "left") */
                double v = r->sel_u[sc];
                while (lo < hi) {
                    int64_t mid = (lo + hi) / 2;
                    if (r->cum[mid] < v)
                        lo = mid + 1;
                    else
                        hi = mid;
                }
                i = lo < last ? lo : last;
                ok = r->sel_acc[sc] * r->u_frozen[i] <= u[i];
                sc++;
                r->proposals++;
            } while (!ok);
            r->selecting = 0;
        }
        double z = r->lengths[c - 1];
        pos[i] += z;
        r->m += z * r->inv_n;
        if (r->direct) {
            /* pos[i] only grew, so this exp cannot overflow */
            u[i] = exp(-beta * (pos[i] - r->ref));
            code = fsum(u, n, &r->S);
            if (code)
                break;
        } else {
            double ui = u[i];
            double new_u = ui * exp(-beta * z);
            r->S += new_u - ui;
            u[i] = new_u;
        }
        r->events++;
        log_event(r, r->t, i, z, r->m);
        int due = r->S < 0.5 * r->S0;
        if (r->events % r->resum_interval == 0) {
            double s;
            code = fsum(pos, n, &s);
            if (code)
                break;
            r->m = s * r->inv_n;
            due = 1;
        }
        if (due) {
            if (!r->direct) {
                code = EXIT_REBUILD;
                break;
            }
            code = rebuild_direct(r);
            if (code)
                break;
        }
        if (r->t == r->next_obs) {
            code = EXIT_OBSERVE_AT;
            break;
        }
    }
out:
    r->cursor = c;
    r->sel_cursor = sc;
    return code;
}

/* Exits of fj_pde. */
enum {
    PDE_STEPS,      /* the requested steps ran */
    PDE_SHIFT,      /* track: the window is due to shift; the step is done */
    PDE_UNSTABLE,   /* dt > 0.5 / w(grid[0] - m) before a step; value = that w */
    PDE_NOT_FINITE, /* the mass or the mean after a step is not finite */
};

/* Mirrored field by field by kernel.Pde. */
typedef struct {
    int32_t family;             /* RATE_* */
    int32_t track;              /* exit with PDE_SHIFT once the window is due to move */
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
        if (p->track && (m - g[0] - p->offset0) / p->h >= 1.0) {
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
