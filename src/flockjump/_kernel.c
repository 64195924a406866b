/*
 * Compiled loops of flockjump: the event loop of the bounded and exponential
 * engines (flockjump.sim), the martingale-residual walk of the step rate
 * (flockjump.measures), and the explicit Euler step of the mean-field PDE and
 * the traveling-wave residual (flockjump.mean_field).
 *
 * Event loop.  Python draws every random number, in each engine's one
 * refill in sim.py, and this code consumes the batches.  Each entry point is
 * a step function that sim._drive calls: it runs events until something
 * only Python can do is due, stores the loop state back into the fj_run
 * record and returns the reason (EXIT_*): a batch ran out, the center of
 * mass is due to be re-summed, the horizon or the event cap was hit, or a
 * total was not finite and positive (an exp that overflows is inf): the
 * total is in value, and sim._drive raises its StallError.  sim._drive does
 * the re-sum itself, correctly rounded in Python, and sets S0 = inf.  A
 * run's observer is a time averager
 * (measures.TimeAverager), and the step does not leave at its observation
 * times: it bins each one into the averager's next row (observe, with
 * bin_positions) and runs on.  It leaves for an observation only when
 * TimeAverager.add refuses it (EXIT_OBSERVE), so that Python serves it
 * through add(), which raises.  Python serves the
 * observations due at a re-sum or at the stop through add().  The
 * exponential engine selects on a binary sum tree of its weights, and its
 * loop rebuilds the tree (exp_rebase, counted in rebuilds) whenever the
 * total is below half of S0: before the first event, when the total has
 * halved and after each re-sum, so no rebuild returns to Python.  Between rebuilds an event carries
 * the jumper's new leaf up the tree in one running sum: each ancestor gets
 * that sum plus its other child, which is the addition tree[2j] +
 * tree[2j+1] of a rebuild, its operands swapped at a right child, and IEEE
 * addition rounds both orders to the same bits.  Each step keeps its loop
 * state in locals and stores it into the record before any call that reads
 * it there (exp_rebase reads the center m) and at every exit.
 *
 * Every operation is the one the Python twin (sim._bounded_steps,
 * sim._exponential_steps) performs, in the same order, on IEEE doubles:
 * build with -ffp-contract=off and without -ffast-math, so that no
 * multiply-add is fused.  exp and atan are the libm functions that math.exp
 * and math.atan call.  The event log, the final state and the averager's
 * rows are then bit-identical to the Python twin's.
 *
 * Residual walk.  fj_residual walks a whole event log in one call: the
 * identity residual A_{t,id} of measures.residual_path for the step rate,
 * whose bracket counts the particles behind the center with the min-heap
 * of model._StepMeanRate.  It repeats every float operation of that loop in
 * its order, so value and sup are the loop's to the bit.  Its positions,
 * versions and heap are scratch arrays of the record; it allocates nothing,
 * writes no array but those, and stops with an exit code instead of reading
 * or writing outside them.
 *
 * Histogram.  bin_positions bins one observation of an event step, the
 * x_j - m, into the bins of [a0, a1) with the operations of
 * measures._numpy_bins in their order, so its counts, below and above are
 * that numpy body's to the bit.  It adds into the averager's next counts row
 * and writes nothing else.
 *
 * PDE step.  fj_pde runs whole Euler steps of the numpy loop in
 * mean_field.py, one pass over the grid each, and holds the whole window
 * policy: it trims the window's empty left cells once the mean has passed
 * them, widens it where they carry mass and tests its right edge.  It returns
 * only when its steps are done, when cells are due on the right (PDE_GROW:
 * Python adds widen, then grow, empty cells) or to raise.  The policy repeats
 * the numpy loop's operations in their order, its sums in index order as
 * np.cumsum forms them, so that it moves given values to the bits the numpy
 * loop moves them to.  The step itself is exact to a tolerance, not to the bit: numpy's vectorized
 * exp and arctan and np.interp's formula round differently from libm; the
 * Euler update is folded into v + (a s + b tail);
 * the tail recursion advances two nodes at a time; and the trapezoid mass
 * and mean are two uniform-grid sums, each in two accumulators, not
 * np.trapezoid's pairwise sum over cell widths.  The arccot and exponential
 * rates come from a table of w(grid[j] - ref), a scratch array of the
 * record, rebuilt whenever the mean m is more than 1/32 (exponential:
 * 1/(32 beta)) from ref, so that a pass makes no libm call: the exponential
 * takes one exp per step, e^(beta (m - ref)), and arccot an odd series of
 * atan.  Exponential nodes within 1 of the clip at EXP_CLAMP,
 * |beta (grid[j] - ref)| >= EXP_CLAMP - 1, keep the direct clipped rate.
 *
 * Wave residual.  fj_wave_residual makes one pass over the nodes h j of the
 * traveling-wave profile and returns the sup-norm residual of its equation,
 * as the numpy body of mean_field.wave_equation_residual does.  At each node
 * it evaluates rho = exp(integral(x) / c - x + log K) and w there and at the
 * two Gauss points of the cell behind, adds the cell to the running
 * exponential recursion of the convolution, forms the 5-point derivative
 * from a rolling window of five rho values and takes the sup, NaN-sticky as
 * np.max is, over the nodes more than 2.5 h from every knot.  It allocates
 * nothing and writes only its record's outputs.  rate_integral() gives w and
 * the family's exact integral of w together, from the same parameters as
 * rate(): the family's kernel_rate() is its one description here.  It
 * agrees with the numpy body to roundoff, not to the bit: libm's exp, atan
 * and log1p round differently from numpy's, the tabulated w is read from
 * the segment table rather than np.interp's formula, and the kernel factor
 * e^-(x_(j+1) - y) of each Gauss point is one constant.
 */

#include <math.h>
#include <stdint.h>

enum {
    EXIT_CAP,             /* events reached max_events */
    EXIT_HORIZON,         /* the next event falls after the horizon; t = horizon */
    EXIT_BATCH,           /* the batch is used up, at the start of an event */
    EXIT_OBSERVE,         /* TimeAverager.add refuses the observation obs_t[obs_k] */
    EXIT_RESUM,           /* the logged event brought events to a multiple of resum_interval */
    EXIT_RATE_STALL,      /* value = the total jump rate, not finite and positive */
    EXIT_WEIGHT_STALL,    /* value = the rebased weight total, not finite and positive */
};

/* RATE_EXPONENTIAL has no thinning engine (its sup is infinite): fj_pde only. */
enum { RATE_STEP, RATE_ARCCOT, RATE_TABULATED, RATE_EXPONENTIAL };

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
       tree[1] is the total, S0 its value at the last rebase, or inf when a
       rebase is due (the first event, a re-summed center) */
    double *tree;
    int64_t leaves;             /* a power of two >= n */
    double S0, ref;
    /* the free tail of the event log's columns: each call writes from 0, and
       the driver rebinds the tail past those rows; log_t == NULL: no log */
    double *log_t, *log_z, *log_m;
    int64_t *log_i;
    int64_t log_len;
    double value;               /* detail of the exit, see EXIT_* */
    int64_t rebuilds;           /* exponential: rebases of the sum tree */
    /* observations: the sorted times obs_t[0 .. n_obs), of which obs_k is the
       next and next_obs its time.  The step bins each due observation into
       the time averager's next row *obs_rows, as TimeAverager.add does:
       counts row at obs_counts + row nbins over the window [a0, a1), and the
       row's time, center, size and the positions below and above the
       window.  Without an averager n_obs = 0, next_obs = inf and the
       averager's pointers are NULL. */
    const double *obs_t;
    int64_t n_obs, obs_k;
    double a0, a1;
    int64_t nbins;
    double *obs_counts, *obs_time, *obs_m;
    int64_t *obs_n, *obs_below, *obs_above, *obs_rows;
} fj_run;

/* k = bisect_right(knots, x) in the tabulated table, TabulatedRate._segments
   flattened: K knots, then K + 1 each of left, value, half_slope and cum,
   then width.  Callers first find the flat ends, x < knots[0] (k = 0) and
   x >= knots[K - 1] (k = K); a NaN x gives some k. */
static inline int64_t tab_search(const double *knots, int64_t K, double x)
{
    int64_t lo = 1, hi = K - 1;
    while (lo < hi) {
        int64_t mid = (lo + hi) / 2;
        if (knots[mid] <= x)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/* w(d), operation for operation as the family's scalar_rate() in model.py,
   from the parameters of its kernel_rate(): step (a, b); arccot (pi/2);
   exponential (beta, EXP_CLAMP), as ExponentialRate.rate:
   exp(-clip(beta d, -EXP_CLAMP, EXP_CLAMP)); tabulated, the piecewise-linear
   rate (a two-knot table) among them, the segment table (see tab_search),
   where w = value[k] in the flat ends and value[k] + 2 half_slope[k]
   (d - left[k]) between them. */
static inline double rate(int32_t family, const double *p, int64_t n_params, double d)
{
    switch (family) {
    case RATE_STEP:
        return d < 0.0 ? p[0] : p[1];
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
        const int64_t K = (n_params - 5) / 5;
        const double *left = p + K, *value = left + K + 1, *half_slope = value + K + 1;
        if (d < p[0])
            return value[0];
        if (d >= p[K - 1])
            return value[K];
        const int64_t k = tab_search(p, K, d);
        return value[k] + 2.0 * half_slope[k] * (d - left[k]);
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

/* Add x_j - m, j < n, into the nbins bins of width h = (a1 - a0) / nbins:
   the left-closed bin floor((x_j - m - a0) / h), clipped to nbins - 1, as
   the numpy body of measures._numpy_bins computes it, and count the
   positions below a0 and at or above a1.  Inside the window
   x_j - m - a0 >= 0, so the truncation to int64_t is that floor.  Returns
   the count of positions with x_j - m NaN, which are in no bin and not
   outside. */
static int64_t bin_positions(const double *pos, int64_t n, double m, double a0, double a1,
                             int64_t nbins, double *counts, int64_t *below_out, int64_t *above_out)
{
    const double h = (a1 - a0) / (double)nbins;
    const int64_t last = nbins - 1;
    int64_t below = 0, above = 0, binned = 0;

    for (int64_t j = 0; j < n; j++) {
        double c = pos[j] - m;
        if (c < a0) {
            below++;
        } else if (c >= a1) {
            above++;
        } else if (c >= a0) {      /* false only for NaN */
            int64_t k = (int64_t)((c - a0) / h);
            counts[k < last ? k : last] += 1.0;
            binned++;
        }
    }
    *below_out = below;
    *above_out = above;
    return n - below - above - binned;
}

/* Bin the observations due before t, and with `ties` those at t, from the
   positions and the center m into the averager's next rows, and move obs_k
   and next_obs past them.  An observation that TimeAverager.add refuses, at
   a center that is not finite or with a NaN position, stays due: then this
   returns 1, and the step exits with EXIT_OBSERVE, so that Python serves it
   through add(), which bins the same row again and zeroes it as it
   raises. */
static int observe(fj_run *r, double m, double t, int ties)
{
    int refused = 0;
    for (; r->obs_k < r->n_obs; r->obs_k++) {
        const double tk = r->obs_t[r->obs_k];
        if (!(tk < t || (ties && tk == t)))
            break;
        const int64_t row = *r->obs_rows;
        int64_t below, above;
        if (!isfinite(m) || bin_positions(r->pos, r->n, m, r->a0, r->a1, r->nbins,
                                          r->obs_counts + row * r->nbins, &below,
                                          &above)) {
            refused = 1;
            break;
        }
        r->obs_time[row] = tk;
        r->obs_m[row] = m;
        r->obs_n[row] = r->n;
        r->obs_below[row] = below;
        r->obs_above[row] = above;
        *r->obs_rows = row + 1;
    }
    r->next_obs = r->obs_k < r->n_obs ? r->obs_t[r->obs_k] : INFINITY;
    return refused;
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
        if (r->next_obs < t_next && observe(r, m, t_next, 0)) {
            code = EXIT_OBSERVE;
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
            log_event(r, t, i, z, m);
        }
        proposals++;
        c++;
        if (accepted && events % r->resum_interval == 0) {
            code = EXIT_RESUM;
            break;
        }
        if (accepted && t == r->next_obs && observe(r, m, t, 1)) {
            code = EXIT_OBSERVE;
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
   then every parent.  A leaf that overflows is inf, and so is the total. */
static int exp_rebase(fj_run *r)
{
    double *tree = r->tree;
    const int64_t P = r->leaves;
    r->rebuilds++;
    r->ref = r->m;
    for (int64_t k = 0; k < r->n; k++)
        tree[P + k] = exp(-r->beta * (r->pos[k] - r->ref));
    for (int64_t j = P - 1; j >= 1; j--)
        tree[j] = tree[2 * j] + tree[2 * j + 1];
    double S0 = tree[1];
    if (!(S0 > 0.0 && isfinite(S0))) {
        r->value = S0;
        return EXIT_WEIGHT_STALL;
    }
    r->S0 = S0;
    return 0;
}

/* The exponential engine's step.  m, ref, S0 and next_obs live in locals:
   m is stored before exp_rebase, which reads it, and at the exit; ref and
   S0 are read back after a rebase, and next_obs after observe, which takes
   m as its argument.  to_resum counts the events left to the next multiple
   of resum_interval. */
int fj_exponential(fj_run *r)
{
    double *pos = r->pos, *tree = r->tree;
    const double *waits = r->waits, *lengths = r->lengths, *uniforms = r->uniforms;
    const int64_t P = r->leaves, batch = r->batch, max_events = r->max_events;
    const double beta = r->beta, inv_n = r->inv_n, horizon = r->horizon;
    double t = r->t, m = r->m, ref = r->ref, S0 = r->S0, next_obs = r->next_obs;
    int64_t events = r->events, c = r->cursor;
    int64_t to_resum = r->resum_interval - events % r->resum_interval;
    int code;

    for (;;) {
        /* the first build (S0 = inf), a halved total, a resum (S0 = inf) */
        if (tree[1] < 0.5 * S0) {
            r->m = m;
            code = exp_rebase(r);
            if (code)
                break;
            ref = r->ref;
            S0 = r->S0;
        }
        if (max_events >= 0 && events >= max_events) {
            code = EXIT_CAP;
            break;
        }
        if (c >= batch) {
            code = EXIT_BATCH;
            break;
        }
        /* an overflowing factor makes R = inf */
        double S = tree[1];
        double R = S * exp(beta * (m - ref));
        if (!(R > 0.0 && isfinite(R))) {
            r->value = R;
            code = EXIT_RATE_STALL;
            break;
        }
        double t_next = t + waits[c] / R;
        if (t_next > horizon) {
            t = horizon;
            code = EXIT_HORIZON;
            break;
        }
        if (next_obs < t_next) {
            if (observe(r, m, t_next, 0)) {
                code = EXIT_OBSERVE;
                break;
            }
            next_obs = r->next_obs;
        }
        t = t_next;
        /* descend to the leaf whose share of [0, S) holds U*S, never into a
           subtree of total 0 (padding, underflowed leaves, round-off) */
        double target = uniforms[c] * S;
        int64_t j = 1;
        while (j < P) {
            j *= 2;
            if (target >= tree[j] && tree[j + 1] > 0.0) {
                target -= tree[j];
                j++;
            }
        }
        int64_t i = j - P;
        double z = lengths[c];
        c++;
        pos[i] += z;
        m += z * inv_n;
        /* pos[i] only grew, so this exp cannot overflow; v carries the new
           sum up to the root */
        double v = exp(-beta * (pos[i] - ref));
        tree[j] = v;
        for (; j > 1; j /= 2) {
            v = v + tree[j ^ 1];
            tree[j / 2] = v;
        }
        events++;
        log_event(r, t, i, z, m);
        if (--to_resum == 0) {
            code = EXIT_RESUM;
            break;
        }
        if (t == next_obs) {
            if (observe(r, m, t, 1)) {
                code = EXIT_OBSERVE;
                break;
            }
            next_obs = r->next_obs;
        }
    }
    r->t = t;
    r->m = m;
    r->events = r->proposals = events;     /* every proposal is an event */
    r->cursor = c;
    return code;
}

/* Exits of fj_pde. */
enum {
    PDE_STEPS,      /* the requested steps ran and the window needs no cells */
    PDE_GROW,       /* Python must add widen, then grow, cells on the right */
    PDE_UNSTABLE,   /* dt > 0.5 / w(grid[0] - m) before a step; value = that w */
    PDE_NOT_FINITE, /* the mass or the mean after a step is not finite */
};

/* Mirrored field by field by kernel.Pde. */
typedef struct {
    int32_t family;             /* RATE_* */
    const double *rate_params;
    int64_t n_rate_params;
    double *grid, *values;      /* updated in place: values each step, both by a trim */
    int64_t len;
    double dt, h;
    double r, w0, c1;           /* jump kernel: mean_field._exp_kernel(h) */
    double offset0;             /* the window moves once (m - grid[0] - offset0) / h >= 1 */
    double empty;               /* a cell may be trimmed while |value| <= empty */
    double edge_share;          /* the window grows once h * (sum of its last edge */
    int64_t edge;               /*   values) > edge_share * mass */
    int64_t steps;              /* run at most this many steps */
    double mass, m;             /* trapezoid mass and mean of values, after each step */
    double trimmed;             /* running sum of the trimmed values */
    int64_t trims;              /* running count of the trimmed cells */
    int64_t done;               /* steps this call ran */
    int64_t widen, grow;        /* PDE_GROW: add widen, then grow, cells on the right */
    double value;               /* detail of the exit, see PDE_* */
    /* arccot and exponential: rates[j] = w(grid[j] - ref) for lo <= j < hi,
       scratch of len entries; ref = nan makes the next step rebuild it */
    double *rates;
    double ref;
    int64_t lo, hi;
} fj_pde_run;

/* The table is rebuilt once |m - ref| (exponential: beta |m - ref|) would
   pass PDE_TABLE_BOUND.  Exponential nodes with |beta (grid[j] - ref)| above
   EXP_CLAMP - PDE_CLAMP_MARGIN, where the clip could bind for such an m,
   stay outside [lo, hi) and take the direct rate(). */
#define PDE_TABLE_BOUND (1.0 / 32.0)
#define PDE_CLAMP_MARGIN 1.0

/* Tabulate w(grid[j] - m) at ref = m. */
static void pde_tabulate(fj_pde_run *p, double m)
{
    const double *g = p->grid, *params = p->rate_params;
    double *t = p->rates;
    const int64_t len = p->len;
    int64_t j;
    p->ref = m;
    p->lo = 0;
    p->hi = len;
    if (p->family == RATE_ARCCOT) {
        for (j = 0; j < len; j++)
            t[j] = params[0] - atan(g[j] - m);
        return;
    }
    const double beta = params[0], edge = params[1] - PDE_CLAMP_MARGIN;
    for (j = 0; j < len; j++) {
        double z = beta * (g[j] - m);
        if (z <= -edge) {
            p->lo = j + 1;
        } else if (z >= edge) {
            p->hi = j;
            break;
        } else {
            t[j] = exp(-z);
        }
    }
}

/* atan z for |z| <= PDE_TABLE_BOUND (1 + 2^-12): the odd Taylor series
   through z^11, whose truncation error is below 1e-20, summed in pairs
   (Estrin's scheme) to keep the chain of dependent operations short. */
static inline double atan_small(double z)
{
    double z2 = z * z, z4 = z2 * z2;
    double p01 = 1.0 - z2 * (1.0 / 3), p23 = 1.0 / 5 - z2 * (1.0 / 7),
           p45 = 1.0 / 9 - z2 * (1.0 / 11);
    return z * (p01 + z4 * (p23 + z4 * p45));
}

/* How a segment of the pass gets w(grid[j] - m). */
enum { W_DIRECT, W_EXP_TABLE, W_ARCCOT_TABLE };

/* The constants of one step's pass: the folded Euler coefficients a =
   dt (w0 - 1) and b = dt c1 of the update v_j += a s_j + b tail_j, the
   kernel ratio r and r^2, and what the segments need to find w. */
typedef struct {
    double a, b, r, r2;
    int32_t family;
    const double *params, *g, *t;
    int64_t n_params;
    double m, ref, d, f;        /* table: d = m - ref; exponential: f = e^(beta d) */
} pde_step;

/* The running state of the pass: tail = tail_j = sum_{d >= 1} r^(d-1)
   s_(j-d) for the next node j, and two accumulators each of sum v_j and
   sum g_j v_j, so that no sum is one long chain of additions. */
typedef struct {
    double tail, v0, v1, gv0, gv1;
} pde_pass;

static inline __attribute__((always_inline)) double pde_w(int kind, const pde_step *q, int64_t j)
{
    switch (kind) {
    case W_EXP_TABLE:
        return q->t[j] * q->f;
    case W_ARCCOT_TABLE: {
        double u = q->g[j] - q->ref;
        return q->t[j] + atan_small(q->d / (1.0 + u * (q->g[j] - q->m)));
    }
    default:
        return rate(q->family, q->params, q->n_params, q->g[j] - q->m);
    }
}

/* Nodes start <= j < end of the pass, with w from `kind`, two per iteration
   and a last one alone when end - start is odd.  With s_j = w_j v_j, node j
   takes tail_j and hands on tail_(j+1) = s_j + r tail_j; a pair hands on
   tail_(j+2) = (s_(j+1) + r s_j) + r^2 tail_j, so the chain that carries
   the tail from pair to pair is one multiply and one add. */
static inline __attribute__((always_inline)) void pde_segment(pde_pass *p, const pde_step *q,
                                                             int kind, double *v,
                                                             int64_t start, int64_t end)
{
    const double *g = q->g;
    const double a = q->a, b = q->b, r = q->r, r2 = q->r2;
    int64_t j = start;
    for (; j + 1 < end; j += 2) {
        double s0 = pde_w(kind, q, j) * v[j], s1 = pde_w(kind, q, j + 1) * v[j + 1];
        double t0 = p->tail, t1 = s0 + r * t0;
        p->tail = (s1 + r * s0) + r2 * t0;
        double v0 = v[j] + (a * s0 + b * t0), v1 = v[j + 1] + (a * s1 + b * t1);
        v[j] = v0;
        v[j + 1] = v1;
        p->v0 += v0;
        p->v1 += v1;
        p->gv0 += g[j] * v0;
        p->gv1 += g[j + 1] * v1;
    }
    if (j < end) {
        double s = pde_w(kind, q, j) * v[j];
        double vj = v[j] + (a * s + b * p->tail);
        p->tail = s + r * p->tail;
        v[j] = vj;
        p->v0 += vj;
        p->gv0 += g[j] * vj;
    }
}

/* The trapezoid mass and first moment of v on the uniform grid as
   np.trapezoid forms them, cell by cell, h (v_j + v_(j-1)) / 2: the pass's
   sums of v_j run past DBL_MAX once they exceed it, while h times them may
   not, so a step whose sums are not finite redoes them here and fails only
   if these are not finite either. */
static void pde_cell_sums(const double *g, const double *v, int64_t len, double h,
                          double *mass, double *first)
{
    double s0 = 0.0, s1 = 0.0;
    for (int64_t j = 1; j < len; j++) {
        s0 += h * (v[j] + v[j - 1]);
        s1 += h * (g[j] * v[j] + g[j - 1] * v[j - 1]);
    }
    *mass = 0.5 * s0;
    *first = 0.5 * s1;
}

/* x[0] + x[1] + ... + x[n-1] in index order, as np.cumsum(x)[-1] forms it;
   n >= 1. */
static double index_sum(const double *x, int64_t n)
{
    double s = x[0];
    for (int64_t i = 1; i < n; i++)
        s += x[i];
    return s;
}

/* Half the length of the window widened by `widen` zeros if its last `edge`
   cells hold more than edge_share of the mass, else 0; only the window's own
   cells among them are summed. */
static int64_t pde_grow(const fj_pde_run *p, int64_t widen, double mass)
{
    const int64_t len = p->len, own = p->edge - widen;
    if (own <= 0)
        return 0;
    const int64_t start = own < len ? len - own : 0;
    return p->h * index_sum(p->values + start, len - start) > p->edge_share * mass
               ? (len + widen) / 2 : 0;
}

/* Once the mean has passed offset0 by k = (int) ahead cells, as
   mean_field._Euler._numpy_steps does: if k < len and the first k values
   are at most `empty` in magnitude, add their sum to trimmed, shift the
   values left by k with zeros after them, move every node by k h and set
   ref = nan to rebuild the rate table; otherwise set widen = k and advance
   offset0 by k cells.  Then set grow; PDE_GROW if cells are due. */
static int pde_move(fj_pde_run *p, double ahead, double mass)
{
    double *g = p->grid, *v = p->values;
    const int64_t len = p->len, k = (int64_t)ahead;
    int64_t j;
    int widen = k >= len;
    for (j = 0; j < k && !widen; j++)
        widen = fabs(v[j]) > p->empty;
    if (widen) {
        p->widen = k;
        p->offset0 += (double)k * p->h;
    } else {
        p->trimmed += index_sum(v, k);
        p->trims += k;
        const double dx = (double)k * p->h;
        for (j = 0; j < len; j++)
            g[j] = g[j] + dx;
        for (j = 0; j < len - k; j++)
            v[j] = v[j + k];
        for (; j < len; j++)
            v[j] = 0.0;
        p->ref = NAN;
    }
    p->grow = pde_grow(p, p->widen, mass);
    return p->widen || p->grow ? PDE_GROW : PDE_STEPS;
}

/* Euler steps of d rho/dt = J(s) - s with s = w(x - m) rho, where J spreads
   s by the geometric node weights W_0 = w0, W_d = c1 r^(d-1): one pass per
   step computes s, the tail sum of J, the update in place and the trapezoid
   mass and first moment that give the next m.  The grid is uniform with
   spacing h (mean_field._Euler refuses any other), so the trapezoid mass is
   h (sum_j v_j - (v_0 + v_(len-1)) / 2), and the first moment its twin for
   g_j v_j (pde_cell_sums redoes both if either is not finite).
   The pass is one segment of direct rates, or, for arccot and the
   exponential, a table segment [lo, hi) between two direct ones, where
   w(grid[j] - m) comes from the table rates[j] = w(grid[j] - ref), with one
   exp per step or no libm call in the pass:
     exponential  e^(-beta (g - m)) = rates[j] e^(beta (m - ref));
     arccot       pi/2 - atan(u - d) = rates[j] + atan(d / (1 + u (u - d)))
                  with u = g - ref, d = m - ref, |d| <= PDE_TABLE_BOUND.
   After a step that leaves the mean a cell or more past offset0, pde_move
   trims the window in place or widens it.  A call returns once cells are
   due on the right (PDE_GROW), a step fails, or its steps are done (a
   sample is due) and the last right-edge test finds no cells due. */
int fj_pde(fj_pde_run *p)
{
    const int32_t family = p->family;
    const double *params = p->rate_params, *g = p->grid;
    const int64_t n_params = p->n_rate_params, len = p->len;
    const double dt = p->dt;
    const int tabulated = family == RATE_ARCCOT || family == RATE_EXPONENTIAL;
    double *v = p->values;
    double m = p->m, mass = p->mass;
    pde_step q = {.a = dt * (p->w0 - 1.0), .b = dt * p->c1, .r = p->r, .r2 = p->r * p->r,
                  .family = family, .params = params, .g = g, .t = p->rates,
                  .n_params = n_params, .f = 1.0};
    int64_t k;
    int code = PDE_STEPS;

    p->widen = p->grow = 0;
    for (k = 0; k < p->steps; k++) {
        double wmax = rate(family, params, n_params, g[0] - m);
        if (dt > 0.5 / wmax) {
            p->value = wmax;
            code = PDE_UNSTABLE;
            break;
        }
        int64_t lo = len, hi = len;
        q.m = m;
        if (tabulated) {
            q.d = m - p->ref;
            if (!(fabs(family == RATE_EXPONENTIAL ? params[0] * q.d : q.d) <= PDE_TABLE_BOUND)) {
                pde_tabulate(p, m);
                q.d = 0.0;
            }
            q.ref = p->ref;
            lo = p->lo;
            hi = p->hi;
            if (family == RATE_EXPONENTIAL)
                q.f = exp(params[0] * q.d);
        }
        pde_pass a = {0.0, 0.0, 0.0, 0.0, 0.0};
        pde_segment(&a, &q, W_DIRECT, v, 0, lo);
        if (family == RATE_EXPONENTIAL)
            pde_segment(&a, &q, W_EXP_TABLE, v, lo, hi);
        else        /* empty unless arccot */
            pde_segment(&a, &q, W_ARCCOT_TABLE, v, lo, hi);
        pde_segment(&a, &q, W_DIRECT, v, hi, len);
        double sum0 = (a.v0 + a.v1) - 0.5 * (v[0] + v[len - 1]);
        double sum1 = (a.gv0 + a.gv1) - 0.5 * (g[0] * v[0] + g[len - 1] * v[len - 1]);
        mass = p->h * sum0;
        m = sum1 / sum0;
        if (!(isfinite(mass) && isfinite(m))) {
            double first;
            pde_cell_sums(g, v, len, p->h, &mass, &first);
            m = first / mass;
        }
        if (!(isfinite(mass) && isfinite(m))) {
            k++;
            code = PDE_NOT_FINITE;
            break;
        }
        double ahead = (m - g[0] - p->offset0) / p->h;
        if (ahead >= 1.0 && (code = pde_move(p, ahead, mass)) != PDE_STEPS) {
            k++;
            break;
        }
    }
    if (code == PDE_STEPS) {
        p->grow = pde_grow(p, 0, mass);
        code = p->grow ? PDE_GROW : PDE_STEPS;
    }
    p->mass = mass;
    p->m = m;
    p->done = k;
    return code;
}

/* Exits of fj_residual. */
enum {
    RESIDUAL_DONE,       /* value and sup hold the walk's result */
    RESIDUAL_BAD_INDEX,  /* log_i[events] lies outside [0, n); nothing was indexed with it */
    RESIDUAL_HEAP_FULL,  /* the heap would outgrow heap_cap */
};

/* Mirrored field by field by kernel.Residual. */
typedef struct {
    int64_t n;
    double inv_n;
    double a, b;                /* step rate: w = a behind m, b at or ahead of it */
    double t_end;
    double m;                   /* the exact mean of pos, the center at time 0 */
    const double *log_t, *log_z;
    const int64_t *log_i;
    int64_t log_len;
    /* scratch owned by the record: the positions, copied in by the caller and
       moved by the walk; a version per particle; and a 1-based min-heap of
       (x, i, version) entries, ordered by x alone.  Python's heap also
       orders ties by i and version, but every entry below the center is
       popped after each event, whatever the order, so both heaps hold the
       same entries after every event and count the same p. */
    double *pos;
    int64_t *versions;
    double *heap_x;
    int64_t *heap_i, *heap_v;
    int64_t heap_cap;           /* length of the heap arrays: entries 1 .. heap_cap - 1 */
    int64_t events;             /* events walked, or the event the walk stopped at */
    double value, sup;          /* A at t_end and sup over s <= t_end of |A_s| */
} fj_residual_walk;

/* Push (x, i, v) onto the heap of *size entries; 0 when it is full. */
static int heap_push(fj_residual_walk *r, int64_t *size, double x, int64_t i, int64_t v)
{
    double *hx = r->heap_x;
    int64_t *hi = r->heap_i, *hv = r->heap_v;
    if (*size + 1 >= r->heap_cap)
        return 0;
    int64_t j = ++*size;
    for (; j > 1 && x < hx[j / 2]; j /= 2) {
        hx[j] = hx[j / 2];
        hi[j] = hi[j / 2];
        hv[j] = hv[j / 2];
    }
    hx[j] = x;
    hi[j] = i;
    hv[j] = v;
    return 1;
}

/* Remove the smallest entry of a non-empty heap: the last entry fills the
   hole at the root and sinks. */
static void heap_pop(fj_residual_walk *r, int64_t *size)
{
    double *hx = r->heap_x;
    int64_t *hi = r->heap_i, *hv = r->heap_v;
    const int64_t last = (*size)--, len = *size;
    const double x = hx[last];
    const int64_t i = hi[last], v = hv[last];
    int64_t j = 1, k;
    while ((k = 2 * j) <= len) {
        if (k < len && hx[k + 1] < hx[k])
            k++;
        if (!(hx[k] < x))
            break;
        hx[j] = hx[k];
        hi[j] = hi[k];
        hv[j] = hv[k];
        j = k;
    }
    hx[j] = x;
    hi[j] = i;
    hv[j] = v;
}

/* Python's max(sup, d): d replaces sup only when it is larger, never a NaN. */
static inline double py_max(double sup, double d)
{
    return d > sup ? d : sup;
}

/* A_{s,id} = m(s) - m(0) - int_0^s <w(. - m_u)> du along the event log up to
   s = t_end, for the step rate, operation for operation as the loop of
   measures.residual_path with model._StepMeanRate as its bracket: p counts
   the particles strictly behind m, the others sit in the heap, and the
   entries the center passes are popped and, if current, counted. */
int fj_residual(fj_residual_walk *r)
{
    const int64_t n = r->n;
    const double inv_n = r->inv_n, a = r->a, b = r->b, t_end = r->t_end;
    double *pos = r->pos;
    int64_t *versions = r->versions;
    double m = r->m;
    const double F0 = m;
    int64_t size = 0, e;

    for (int64_t k = 0; k < n; k++) {
        versions[k] = 0;
        if (!(pos[k] < m) && !heap_push(r, &size, pos[k], k, 0)) {
            r->events = 0;
            return RESIDUAL_HEAP_FULL;
        }
    }
    int64_t p = n - size;
    double G = (a * (double)p + b * (double)(n - p)) / (double)n;
    double integral = 0.0, t_prev = 0.0, sup = 0.0;
    for (e = 0; e < r->log_len; e++) {
        double te = r->log_t[e];
        if (te > t_end)
            break;
        int64_t i = r->log_i[e];
        if (i < 0 || i >= n) {
            r->events = e;
            return RESIDUAL_BAD_INDEX;
        }
        integral += G * (te - t_prev);
        t_prev = te;
        sup = py_max(sup, fabs(m - F0 - integral));     /* just before the jump */
        double z = r->log_z[e];
        double x_old = pos[i];
        double x_new = pos[i] = x_old + z;
        if (x_old < m)
            p--;
        m += z * inv_n;
        if (!heap_push(r, &size, x_new, i, ++versions[i])) {
            r->events = e;
            return RESIDUAL_HEAP_FULL;
        }
        while (size && r->heap_x[1] < m) {
            int64_t j = r->heap_i[1], v = r->heap_v[1];
            heap_pop(r, &size);
            if (v == versions[j])
                p++;
        }
        G = (a * (double)p + b * (double)(n - p)) * inv_n;
        sup = py_max(sup, fabs(m - F0 - integral));     /* just after the jump */
    }
    integral += G * (t_end - t_prev);
    r->value = m - F0 - integral;
    r->sup = py_max(sup, fabs(r->value));
    r->events = e;
    return RESIDUAL_DONE;
}

/* Mirrored field by field by kernel.WaveResidual. */
typedef struct {
    int32_t family;             /* RATE_* */
    const double *rate_params;  /* w and its integral: see rate_integral() */
    int64_t n_rate_params;
    const double *knots;        /* nodes within 2.5 h of one are skipped */
    int64_t n_knots;
    double c, h, log_norm;      /* speed, spacing and log K of the profile */
    int64_t j_lo, j_hi;         /* the nodes h j, j_lo <= j <= j_hi */
    double sup;                 /* out: sup |residual| over the kept nodes, NaN if one is */
    double mass;                /* out: trapezoid mass of rho on the nodes */
    int64_t kept;               /* out: the nodes the sup is over */
} fj_wave;

/* w(x), as rate() gives it, and in *I the integral of w from 0 to x, as the
   family's integral() in model.py forms it, both from the parameters of
   rate().  Arccot takes one atan for both, the exponential one exp and the
   tabulated rate one search. */
static inline double rate_integral(int32_t family, const double *p, int64_t n_params, double x,
                                   double *I)
{
    switch (family) {
    case RATE_STEP:
        *I = x < 0.0 ? p[0] * x : p[1] * x;
        break;
    case RATE_ARCCOT: {
        const double t = atan(x);
        *I = x * (p[0] - t) + 0.5 * log1p(x * x);
        return p[0] - t;
    }
    case RATE_EXPONENTIAL: {
        double z = p[0] * x;
        if (z < -p[1])
            z = -p[1];
        else if (z > p[1])
            z = p[1];
        const double e = exp(-z);
        *I = (1.0 - e) / p[0];
        return e;
    }
    default: {  /* RATE_TABULATED: w as rate() has it, with one search */
        const int64_t K = (n_params - 5) / 5;
        const int64_t k = x < p[0] ? 0 : x >= p[K - 1] ? K : tab_search(p, K, x);
        const double *left = p + K, *value = left + K + 1, *half_slope = value + K + 1,
                     *cum = half_slope + K + 1;
        const double width = p[n_params - 1], dy = x - left[k];
        const double s = dy < 0.0 ? 0.0 : dy > width ? width : dy;
        *I = cum[k] + (value[k] + half_slope[k] * s) * dy;
        return value[k] + 2.0 * half_slope[k] * s;
    }
    }
    return rate(family, p, n_params, x);
}

/* rho(x) = exp(integral(x) / c - x + log K) and w(x) in *w. */
static inline __attribute__((always_inline)) double wave_point(const fj_wave *q, int32_t family,
                                                              double x, double *w)
{
    double I;
    *w = rate_integral(family, q->rate_params, q->n_rate_params, x, &I);
    return exp(I / q->c - x + q->log_norm);
}

/* np.max's max: d replaces sup when it is larger or NaN, and a NaN sup stays.
   (py_max, like Python's max(sup, d), drops a NaN d.) */
static inline double nan_max(double sup, double d)
{
    return d > sup || d != d ? d : sup;
}

/* The pass of fj_wave_residual with the family fixed, so that the switch of
   rate_integral() folds away. */
static inline __attribute__((always_inline)) void wave_pass(fj_wave *q, int32_t family)
{
    const double h = q->h, c = q->c, hh = 0.5 * h, band = 2.5 * h;
    /* Gauss points mid -+ off of the cell [x_(j-1), x_j]; the kernel factor
       e^-(x_j - y) of each is the same for every cell */
    const double off = 0.5 * h * (1.0 / sqrt(3.0));
    const double k_lo = hh * exp(-(hh + off)), k_hi = hh * exp(-(hh - off));
    const double decay = exp(-h);
    const double *knots = q->knots;
    const int64_t n_knots = q->n_knots;
    /* rho at nodes j - 4 .. j, w and conv at nodes j - 2 .. j */
    double r0 = 0.0, r1 = 0.0, r2 = 0.0, r3 = 0.0, r4 = 0.0;
    double w0 = 0.0, w1 = 0.0, w2 = 0.0, v0 = 0.0, v1 = 0.0, v2 = 0.0;
    double conv = 0.0, mass = 0.0, sup = 0.0, x_prev = 0.0;
    int64_t kept = 0;

    for (int64_t j = q->j_lo; j <= q->j_hi; j++) {
        const double x = h * (double)j;
        if (j > q->j_lo) {
            /* int_{x_(j-1)}^{x_j} w rho e^-(x_j - y) dy, 2-point Gauss-Legendre,
               onto conv_j = cell + e^-h conv_(j-1) */
            double mid = 0.5 * (x_prev + x), wa, wb;
            double ra = wave_point(q, family, mid - off, &wa);
            double rb = wave_point(q, family, mid + off, &wb);
            conv = k_lo * (wa * ra) + k_hi * (wb * rb) + decay * conv;
        }
        double wx, rx = wave_point(q, family, x, &wx);
        if (j > q->j_lo)        /* np.trapezoid's cell */
            mass += (x - x_prev) * (r4 + rx) * 0.5;
        r0 = r1, r1 = r2, r2 = r3, r3 = r4, r4 = rx;
        w0 = w1, w1 = w2, w2 = wx;
        v0 = v1, v1 = v2, v2 = conv;
        x_prev = x;
        if (j - q->j_lo < 4)
            continue;
        /* the residual at node j - 2, in numpy's order of operations */
        const double xi = h * (double)(j - 2);
        double drho = (r0 - 8.0 * r1 + 8.0 * r3 - r4) / (12.0 * h);
        double resid = -c * drho + w0 * r2 - v0;
        int keep = 1;
        for (int64_t i = 0; i < n_knots; i++)
            keep &= fabs(xi - knots[i]) > band;
        if (keep) {
            sup = nan_max(sup, fabs(resid));
            kept++;
        }
    }
    q->mass = mass;
    q->sup = sup;
    q->kept = kept;
}

/* The sup-norm residual of -c rho' + w rho - int_{-inf}^x w rho e^-(x - y) dy
   on the nodes h j_lo .. h j_hi (see "Wave residual" at the top).  Returns 0. */
int fj_wave_residual(fj_wave *q)
{
    switch (q->family) {
    case RATE_STEP:
        wave_pass(q, RATE_STEP);
        break;
    case RATE_ARCCOT:
        wave_pass(q, RATE_ARCCOT);
        break;
    case RATE_EXPONENTIAL:
        wave_pass(q, RATE_EXPONENTIAL);
        break;
    default:
        wave_pass(q, RATE_TABULATED);
    }
    return 0;
}

/* The size of each record that kernel.py mirrors, in the order of
   kernel.RECORDS, so that loading can refuse a mirror whose layout differs;
   -1 past them. */
int64_t fj_record_size(int32_t which)
{
    switch (which) {
    case 0:
        return sizeof(fj_run);
    case 1:
        return sizeof(fj_pde_run);
    case 2:
        return sizeof(fj_residual_walk);
    case 3:
        return sizeof(fj_wave);
    default:
        return -1;
    }
}
