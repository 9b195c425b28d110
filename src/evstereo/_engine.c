/* Compiled kernels of evstereo: the event loop of the exact event-driven LIF
 * simulation, the strict parser of plain event files, the
 * background-activity filter, the draws of a synthetic stimulus and the
 * rows of a CSV artifact. Each reproduces a Python/numpy reference in the
 * package exactly; the reference stays the fallback.
 *
 * The event loop is the algorithm of simulator._Engine, operation for
 * operation: the closed-form advance, the crossing prediction by closed-form
 * argmax plus integer bisection, the (t, nid, stamp) min-heap with
 * stale-stamp skipping, saturating synapses and the dirty list. Every
 * floating-point expression is evaluated in the order the Python code
 * evaluates it and calls the same libm exp/log, so that, compiled with
 * -ffp-contract=off and without -ffast-math, spike times, ids and delivery
 * counts are bit-identical. Every exp argument is an integer microsecond
 * count over one of a few time constants; below TABLE_SIZE its value comes
 * from a lazily filled table that holds exactly what exp returns for it.
 *
 * A merged twin pair is an excitatory coincidence neuron and its inhibitory
 * shadow with the same parameters and the same input, which the caller has
 * checked. The loop advances, predicts and schedules only the excitatory
 * neuron and skips every delivery to the shadow (they still count). When the
 * excitatory spike pops at t it pushes (t, shadow) with the shadow's
 * unchanging stamp, so the shadow spikes, and its synapses deliver, at the
 * (t, nid) heap position the unmerged loop gives it.
 *
 * Where the Python code would raise (a float division by zero) or produce a
 * time outside int64 (Python ints are unbounded), evstereo_run returns
 * EV_PYTHON and the caller runs the Python loop instead.
 */

#include <math.h>
#include <stdbool.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum { EV_OK = 0, EV_NOMEM = 1, EV_PYTHON = 2 };
enum { NO_CROSSING = 0, CROSSING = 1, UNREPRESENTABLE = -1 };

#define TIME_LIMIT 0x1p62 /* bisection bounds stay exact and their sum fits int64 */
#define TABLE_SIZE 65536 /* decay table entries per time constant: 512 KiB, touched lazily */

typedef struct {
    const double *tau_m, *tau_s, *gain, *theta, *reset, *v_floor, *coef;
    const int64_t *refr;
    const uint8_t *equal_tau;
    const double *taus; /* the distinct time constants */
    const int64_t *m_idx, *s_idx; /* per neuron: tau_m == taus[m_idx], tau_s == taus[s_idx] */
    double *table; /* TABLE_SIZE entries per time constant, 0 until first use */
    double *v, *s;
    int64_t *t_last, *refr_until, *stamp;
} network;

typedef struct {
    int64_t t, nid, stamp;
} entry;

typedef struct {
    entry *items;
    int64_t len, cap;
} heap;

typedef struct {
    int64_t *t, *id;
    int64_t len, cap;
} spikes;

/* ------------------------------------------------------------ closed form */

/* exp(-dt / taus[j]) for an integer-valued dt >= 0. Below TABLE_SIZE the
 * table entry holds exactly that value; an entry that underflowed to 0 is
 * simply computed again. */
static double decay(const network *net, int64_t j, double dt)
{
    if (dt < TABLE_SIZE) {
        double *e = net->table + j * TABLE_SIZE + (int64_t)dt;
        if (*e == 0.0)
            *e = exp(-dt / net->taus[j]);
        return *e;
    }
    return exp(-dt / net->taus[j]);
}

static double v_at(const network *net, int64_t i, double v0, double s0, double dt)
{
    if (net->equal_tau[i]) {
        double em = decay(net, net->m_idx[i], dt);
        return (v0 + net->gain[i] * s0 * dt) * em;
    }
    double a = net->coef[i] * s0;
    return (v0 - a) * decay(net, net->m_idx[i], dt) + a * decay(net, net->s_idx[i], dt);
}

static void advance(network *net, int64_t i, int64_t t)
{
    int64_t t0 = net->t_last[i];
    if (t == t0)
        return;
    int64_t ru = net->refr_until[i];
    if (ru > t0) {
        int64_t tr = ru < t ? ru : t;
        net->s[i] *= decay(net, net->s_idx[i], (double)(tr - t0));
        net->v[i] = net->reset[i];
        t0 = tr;
    }
    if (t > t0) {
        double v = v_at(net, i, net->v[i], net->s[i], (double)(t - t0));
        double fl = net->v_floor[i];
        net->v[i] = v > fl ? v : fl;
        net->s[i] *= decay(net, net->s_idx[i], (double)(t - t0));
    }
    net->t_last[i] = t;
}

static int predict_crossing(const network *net, int64_t i, int64_t *out)
{
    int64_t t0 = net->t_last[i], ru = net->refr_until[i], base;
    double theta = net->theta[i], v0, s0;
    if (ru > t0) {
        v0 = net->reset[i];
        s0 = net->s[i] * decay(net, net->s_idx[i], (double)(ru - t0));
        base = ru;
    } else {
        v0 = net->v[i];
        s0 = net->s[i];
        base = t0;
    }
    if (v0 >= theta) {
        *out = base;
        return CROSSING;
    }
    double g = net->gain[i], tm = net->tau_m[i], ts = net->tau_s[i], t_peak;
    if (g * s0 - v0 / tm <= 0.0)
        return NO_CROSSING;
    if (net->equal_tau[i]) {
        if (s0 == 0.0)
            return NO_CROSSING;
        double gs = g * s0;
        if (gs == 0.0)
            return UNREPRESENTABLE;
        t_peak = tm - v0 / gs;
    } else {
        double a = net->coef[i] * s0, b = v0 - a, ratio = 0.0;
        if (b != 0.0) {
            double den = b * ts;
            if (den == 0.0)
                return UNREPRESENTABLE;
            ratio = -(a * tm) / den;
        }
        if (ratio <= 0.0)
            return NO_CROSSING;
        double rate = 1.0 / ts - 1.0 / tm;
        if (rate == 0.0)
            return UNREPRESENTABLE;
        t_peak = log(ratio) / rate;
    }
    if (t_peak <= 0.0 || !isfinite(t_peak))
        return NO_CROSSING;
    /* kf and kc stay doubles: Python converts the integers floor(t_peak)
     * and floor(t_peak) + 1 to exactly these doubles when it divides */
    double kf = floor(t_peak), kc = kf + 1.0;
    int64_t k;
    if (v_at(net, i, v0, s0, kf) >= theta) {
        if (kf >= TIME_LIMIT)
            return UNREPRESENTABLE;
        int64_t lo = 1, hi = (int64_t)kf; /* v rises monotonically on [0, t_peak] */
        while (lo < hi) {
            int64_t mid = (lo + hi) / 2;
            if (v_at(net, i, v0, s0, (double)mid) >= theta)
                hi = mid;
            else
                lo = mid + 1;
        }
        k = lo;
    } else if (v_at(net, i, v0, s0, kc) >= theta) {
        if (kf >= TIME_LIMIT)
            return UNREPRESENTABLE;
        k = (int64_t)kf + 1;
    } else {
        return NO_CROSSING;
    }
    if (__builtin_add_overflow(base, k, out))
        return UNREPRESENTABLE;
    return CROSSING;
}

/* ------------------------------------------------------------ containers */

static int entry_less(const entry *a, const entry *b)
{
    if (a->t != b->t)
        return a->t < b->t;
    if (a->nid != b->nid)
        return a->nid < b->nid;
    return a->stamp < b->stamp;
}

static int heap_push(heap *h, entry e)
{
    if (h->len == h->cap) {
        int64_t cap = h->cap ? 2 * h->cap : 1024;
        entry *items = realloc(h->items, (size_t)cap * sizeof(entry));
        if (!items)
            return 0;
        h->items = items;
        h->cap = cap;
    }
    int64_t i = h->len++;
    while (i > 0) {
        int64_t parent = (i - 1) / 2;
        if (!entry_less(&e, &h->items[parent]))
            break;
        h->items[i] = h->items[parent];
        i = parent;
    }
    h->items[i] = e;
    return 1;
}

static void heap_pop(heap *h)
{
    entry last = h->items[--h->len];
    int64_t i = 0, n = h->len;
    for (;;) {
        int64_t c = 2 * i + 1;
        if (c >= n)
            break;
        if (c + 1 < n && entry_less(&h->items[c + 1], &h->items[c]))
            c++;
        if (!entry_less(&h->items[c], &last))
            break;
        h->items[i] = h->items[c];
        i = c;
    }
    if (n)
        h->items[i] = last;
}

static int spikes_append(spikes *sp, int64_t t, int64_t id)
{
    if (sp->len == sp->cap) {
        int64_t cap = sp->cap ? 2 * sp->cap : 4096;
        int64_t *nt = realloc(sp->t, (size_t)cap * sizeof(int64_t));
        if (!nt)
            return 0;
        sp->t = nt;
        int64_t *ni = realloc(sp->id, (size_t)cap * sizeof(int64_t));
        if (!ni)
            return 0;
        sp->id = ni;
        sp->cap = cap;
    }
    sp->t[sp->len] = t;
    sp->id[sp->len] = id;
    sp->len++;
    return 1;
}

/* ------------------------------------------------------------ event loop */

void evstereo_free(void *p)
{
    free(p);
}

/* par holds the per-neuron rows tau_m, tau_s, gain, theta, reset, v_floor and
 * coef, n values each. taus holds the n_taus distinct time constants and
 * tau_idx the rows m_idx and s_idx, n values each, with tau_m[i] ==
 * taus[m_idx[i]] and tau_s[i] == taus[s_idx[i]]. The efferent synapses of
 * neuron i are adj_start[i] .. adj_start[i+1]-1. twins holds n_twins merged
 * pairs (excitatory id, shadow id), the shadow's id the larger, and
 * twin_syn the n_twin_syn synapse pairs (into the excitatory neuron, into
 * the shadow) that match their inputs in delivery order. On EV_OK,
 * *spike_t and *spike_id hold *n_spikes entries owned by the caller
 * (release with evstereo_free), and final_state, unless NULL, the final v,
 * s (n values each) and sat_value (one per synapse); a shadow's values are
 * its twin's. */
int evstereo_run(int64_t n, const double *par, const int64_t *refr, const uint8_t *equal_tau,
                 int64_t n_taus, const double *taus, const int64_t *tau_idx,
                 const int64_t *adj_start, const int64_t *adj_post, const double *adj_weight,
                 const uint8_t *adj_sat, int64_t n_events, const int64_t *ev_t, const int64_t *ev_src,
                 int64_t n_twins, const int64_t *twins, int64_t n_twin_syn, const int64_t *twin_syn,
                 int64_t **spike_t, int64_t **spike_id, int64_t *n_spikes, int64_t *deliveries_out,
                 double *final_state)
{
    int64_t m = adj_start[n];
    network net = {
        .tau_m = par, .tau_s = par + n, .gain = par + 2 * n, .theta = par + 3 * n,
        .reset = par + 4 * n, .v_floor = par + 5 * n, .coef = par + 6 * n,
        .refr = refr, .equal_tau = equal_tau,
        .taus = taus, .m_idx = tau_idx, .s_idx = tau_idx + n,
    };
    double *state = calloc((size_t)(2 * n + m) + 1, sizeof(double));
    int64_t *istate = calloc((size_t)(5 * n + m) + 1, sizeof(int64_t));
    uint8_t *in_dirty = calloc((size_t)(2 * n) + 1, 1);
    net.table = calloc((size_t)n_taus * TABLE_SIZE + 1, sizeof(double));
    heap h = {0};
    spikes sp = {0};
    int status = EV_OK;
    int64_t deliveries = 0, n_dirty = 0, i_evt = 0;
    if (!state || !istate || !in_dirty || !net.table) {
        status = EV_NOMEM;
        goto done;
    }
    net.v = state;
    net.s = state + n;
    double *sat_value = state + 2 * n;
    net.t_last = istate;
    net.refr_until = istate + n;
    net.stamp = istate + 2 * n;
    int64_t *dirty = istate + 3 * n; /* each neuron at most once, guarded by in_dirty */
    int64_t *sat_time = istate + 4 * n;
    int64_t *twin = istate + 4 * n + m; /* the shadow of a merged excitatory neuron, else -1 */
    uint8_t *shadow = in_dirty + n;
    for (int64_t i = 0; i < n; i++) {
        net.refr_until[i] = -1;
        twin[i] = -1;
    }
    for (int64_t p = 0; p < n_twins; p++) {
        twin[twins[2 * p]] = twins[2 * p + 1];
        shadow[twins[2 * p + 1]] = 1;
    }

#define MARK_DIRTY(nid)                      \
    do {                                     \
        net.stamp[nid]++;                    \
        if (!in_dirty[nid]) {                \
            in_dirty[nid] = 1;               \
            dirty[n_dirty++] = (nid);        \
        }                                    \
    } while (0)

    for (;;) {
        for (int64_t j = 0; j < n_dirty; j++) {
            int64_t nid = dirty[j], t_pred;
            in_dirty[nid] = 0;
            int r = predict_crossing(&net, nid, &t_pred);
            if (r == UNREPRESENTABLE) {
                status = EV_PYTHON;
                goto done;
            }
            if (r == CROSSING && !heap_push(&h, (entry){t_pred, nid, net.stamp[nid]})) {
                status = EV_NOMEM;
                goto done;
            }
        }
        n_dirty = 0;
        while (h.len && h.items[0].stamp != net.stamp[h.items[0].nid])
            heap_pop(&h);
        int have_ext = i_evt < n_events;
        int64_t pre, t;
        if (h.len && (!have_ext || h.items[0].t <= ev_t[i_evt])) {
            int64_t nid = h.items[0].nid;
            t = h.items[0].t;
            heap_pop(&h);
            if (!spikes_append(&sp, t, nid)) {
                status = EV_NOMEM;
                goto done;
            }
            if (!shadow[nid]) {
                /* stamp matched, so the state is exactly the predicted one */
                advance(&net, nid, t);
                net.v[nid] = net.reset[nid];
                if (__builtin_add_overflow(t, net.refr[nid], &net.refr_until[nid])) {
                    status = EV_PYTHON;
                    goto done;
                }
                MARK_DIRTY(nid); /* may cross again once refractoriness ends */
                int64_t tw = twin[nid];
                if (tw >= 0 && !heap_push(&h, (entry){t, tw, net.stamp[tw]})) {
                    status = EV_NOMEM;
                    goto done;
                }
            }
            pre = nid;
        } else if (have_ext) {
            t = ev_t[i_evt];
            pre = ev_src[i_evt];
            i_evt++;
        } else {
            break;
        }
        for (int64_t k = adj_start[pre]; k < adj_start[pre + 1]; k++) {
            int64_t post = adj_post[k];
            if (shadow[post])
                continue;
            advance(&net, post, t);
            double w = adj_weight[k];
            if (adj_sat[k]) {
                double lingering = sat_value[k] * decay(&net, net.s_idx[post], (double)(t - sat_time[k]));
                net.s[post] += w - lingering;
                sat_value[k] = w;
                sat_time[k] = t;
            } else {
                net.s[post] += w;
            }
            MARK_DIRTY(post);
        }
        deliveries += adj_start[pre + 1] - adj_start[pre];
    }
#undef MARK_DIRTY
    for (int64_t p = 0; p < n_twins; p++) {
        net.v[twins[2 * p + 1]] = net.v[twins[2 * p]];
        net.s[twins[2 * p + 1]] = net.s[twins[2 * p]];
    }
    for (int64_t q = 0; q < n_twin_syn; q++)
        sat_value[twin_syn[2 * q + 1]] = sat_value[twin_syn[2 * q]];
    if (final_state)
        memcpy(final_state, state, (size_t)(2 * n + m) * sizeof(double)); /* v, s, sat_value */

done:
    free(state);
    free(istate);
    free(in_dirty);
    free(net.table);
    free(h.items);
    if (status == EV_OK) {
        *spike_t = sp.t;
        *spike_id = sp.id;
        *n_spikes = sp.len;
        *deliveries_out = deliveries;
    } else {
        free(sp.t);
        free(sp.id);
        *spike_t = *spike_id = NULL;
        *n_spikes = *deliveries_out = 0;
    }
    return status;
}

/* ------------------------------------------------------------ event files */

/* One unsigned decimal field of digits; *p advances past it. Returns 0 for
 * an empty field or a value beyond int64, which the line scan rejects. */
static int parse_field(const uint8_t **p, const uint8_t *end, int64_t *out)
{
    const uint8_t *q = *p;
    int64_t v = 0;
    while (q < end && *q >= '0' && *q <= '9') {
        int64_t d = *q++ - '0';
        if (v > (INT64_MAX - d) / 10)
            return 0;
        v = v * 10 + d;
    }
    if (q == *p)
        return 0;
    *p = q;
    *out = v;
    return 1;
}

/* The rows of a plain event file: buf[0 .. len) is everything after the
 * header, rows of "t,x,y,p" plus ",L" or ",R" when has_side, each ended by
 * '\n' (the last may end at len instead). Writes at most cap rows into the
 * columns and their number into *n_rows. Returns EV_PYTHON for anything
 * else: a byte out of place, an empty field, a value beyond int64, p > 1,
 * or x >= x_end or y >= y_end. The line scan then decides. */
int evstereo_parse_events(const uint8_t *buf, int64_t len, int has_side, int64_t side,
                          int64_t x_end, int64_t y_end, int64_t cap,
                          int64_t *t, int32_t *x, int32_t *y, int8_t *p, int8_t *s, int64_t *n_rows)
{
    const uint8_t *q = buf, *end = buf + len;
    int64_t n = 0;
    while (q < end) {
        int64_t v[4];
        for (int f = 0; f < 4; f++) {
            if (!parse_field(&q, end, &v[f]))
                return EV_PYTHON;
            if (f < 3 || has_side) {
                if (q == end || *q != ',')
                    return EV_PYTHON;
                q++;
            }
        }
        int64_t code = side;
        if (has_side) {
            if (q == end || (*q != 'L' && *q != 'R'))
                return EV_PYTHON;
            code = *q++ == 'R';
        }
        if (q < end && *q++ != '\n')
            return EV_PYTHON;
        if (n == cap || v[3] > 1 || v[1] >= x_end || v[2] >= y_end)
            return EV_PYTHON;
        t[n] = v[0];
        x[n] = (int32_t)v[1];
        y[n] = (int32_t)v[2];
        p[n] = (int8_t)v[3];
        s[n] = (int8_t)code;
        n++;
    }
    *n_rows = n;
    return EV_OK;
}

/* ------------------------------------------------------------ background */

/* Background-activity filter over n canonically ordered events (t
 * non-decreasing): keep[i] = 1 iff a strictly earlier event on the same side
 * within Chebyshev distance radius, on another pixel unless same_pixel, has
 * t_prev >= t[i] - window. last[] holds the latest timestamp per pixel of a
 * frame padded by radius on every edge, one frame per side, so no
 * neighbourhood wraps. Each group of equal timestamps is queried before it
 * is recorded, so support is strictly earlier. Returns EV_PYTHON if a time is
 * negative or out of order or an event lies outside the frame. */
int evstereo_background(int64_t n, const int64_t *t, const int32_t *x, const int32_t *y, const int8_t *side,
                        int64_t width, int64_t height, int64_t radius, int same_pixel, int64_t window,
                        uint8_t *keep)
{
    int64_t wp = width + 2 * radius, frame = wp * (height + 2 * radius);
    int64_t *last = malloc((size_t)(2 * frame) * sizeof(int64_t));
    if (!last)
        return EV_NOMEM;
    for (int64_t c = 0; c < 2 * frame; c++)
        last[c] = INT64_MIN; /* below every t - window, as t >= 0 */
    int status = EV_OK;
    for (int64_t i = 0, j = 0; i < n && status == EV_OK; i = j) {
        int64_t ti = t[i];
        if (ti < 0 || (i && ti < t[i - 1])) {
            status = EV_PYTHON;
            break;
        }
        int64_t since = ti - window;
        for (j = i; j < n && t[j] == ti; j++) {
            if (x[j] < 0 || x[j] >= width || y[j] < 0 || y[j] >= height || side[j] < 0 || side[j] > 1) {
                status = EV_PYTHON;
                break;
            }
            const int64_t *centre = last + side[j] * frame + (y[j] + radius) * wp + x[j] + radius;
            uint8_t ok = 0;
            for (int64_t dy = -radius; dy <= radius && !ok; dy++)
                for (int64_t dx = -radius; dx <= radius; dx++)
                    if ((dx || dy || same_pixel) && centre[dy * wp + dx] >= since) {
                        ok = 1;
                        break;
                    }
            keep[j] = ok;
        }
        for (int64_t k = i; k < j; k++)
            last[side[k] * frame + (y[k] + radius) * wp + x[k] + radius] = ti;
    }
    free(last);
    return status;
}

/* ------------------------------------------------------------ synthetic stimulus */

#ifdef EVSTEREO_NPYRANDOM
/* numpy's random C library, numpy/random/lib/libnpyrandom.a. Its header
 * needs Python.h; a bit generator is only passed through, so an incomplete
 * type serves. */
typedef struct bitgen bitgen_t;
double random_standard_uniform(bitgen_t *bitgen_state);
double random_normal(bitgen_t *bitgen_state, double loc, double scale);
void random_bounded_uint64_fill(bitgen_t *bitgen_state, uint64_t off, uint64_t rng, intptr_t cnt, bool use_masked,
                                uint64_t *out);

/* jittered(t) of synth._emit: max(0, min(duration, t + int(round(j))))
 * of j = max(-3 sigma, min(3 sigma, rng.normal(0, sigma))), picking as
 * Python's min and max do and rounding half to even; duration < 2^62 */
static int64_t jittered(bitgen_t *bg, int64_t t, double sigma, int64_t duration)
{
    if (sigma == 0.0)
        return t;
    double j = random_normal(bg, 0.0, sigma), hi = 3.0 * sigma, lo = -3.0 * sigma;
    j = j < hi ? j : hi;
    j = j > lo ? j : lo;
    double r = nearbyint(j);
    if (r >= 0x1p62)
        return duration;
    if (r <= -0x1p62)
        return 0;
    int64_t tj = t + (int64_t)r;
    return tj < duration ? (tj > 0 ? tj : 0) : duration;
}

/* The emission loop of synth._emit, drawing from bg in the same
 * order: at step k (time k * lattice) every (row, column) emits with
 * probability p_emit, a LEFT event at the column and a RIGHT one at the
 * column plus d[k], sharing one polarity, each jittered on its own. On EV_OK
 * *events holds *n_events rows (t, x, y, p, side), owned by the caller
 * (release with evstereo_free). */
int evstereo_synth(bitgen_t *bg, int64_t n_steps, int64_t lattice, const int64_t *d, int64_t n_rows,
                   const int64_t *rows, int64_t n_cols, const int64_t *cols, double p_emit, double sigma,
                   int64_t duration, int64_t **events, int64_t *n_events)
{
    int64_t *ev = NULL, len = 0, cap = 0;
    for (int64_t k = 0; k < n_steps; k++) {
        int64_t t = k * lattice;
        for (int64_t r = 0; r < n_rows; r++) {
            for (int64_t c = 0; c < n_cols; c++) {
                if (p_emit < 1.0 && random_standard_uniform(bg) >= p_emit)
                    continue;
                uint64_t pol;
                random_bounded_uint64_fill(bg, 0, 1, 1, false, &pol);
                if (len + 2 > cap) {
                    cap = cap ? 2 * cap : 4096;
                    int64_t *grown = realloc(ev, (size_t)cap * 5 * sizeof(int64_t));
                    if (!grown) {
                        free(ev);
                        *events = NULL;
                        *n_events = 0;
                        return EV_NOMEM;
                    }
                    ev = grown;
                }
                int64_t *e = ev + 5 * len;
                e[0] = jittered(bg, t, sigma, duration);
                e[1] = cols[c];
                e[2] = rows[r];
                e[3] = (int64_t)pol;
                e[4] = 0;
                e[5] = jittered(bg, t, sigma, duration);
                e[6] = cols[c] + d[k];
                e[7] = rows[r];
                e[8] = (int64_t)pol;
                e[9] = 1;
                len += 2;
            }
        }
    }
    *events = ev;
    *n_events = len;
    return EV_OK;
}
#endif

/* ------------------------------------------------------------ CSV rows */

static char *put_int(char *p, int64_t v)
{
    char digits[20];
    int k = 0;
    uint64_t u = v < 0 ? -(uint64_t)v : (uint64_t)v;
    do {
        digits[k++] = (char)('0' + u % 10);
        u /= 10;
    } while (u);
    if (v < 0)
        *p++ = '-';
    while (k)
        *p++ = digits[--k];
    return p;
}

/* The body of a CSV file: n_rows lines of n_cols cells joined by ',', each
 * ended by '\n'. Column c holds n_rows int64 values at cols[c]. If
 * n_names[c] < 0 a cell is its value in decimal; otherwise the value is a
 * code k in [0, n_names[c]) and the cell the name j = first[c] + k, the
 * bytes text[bounds[j] .. bounds[j+1]). On EV_OK *out holds *out_len bytes
 * owned by the caller (release with evstereo_free). Returns EV_PYTHON for a
 * code out of range. */
int evstereo_format_rows(int64_t n_rows, int64_t n_cols, const int64_t *const *cols, const int64_t *n_names,
                         const int64_t *first, const int64_t *bounds, const char *text, char **out,
                         int64_t *out_len)
{
    int64_t row_max = n_cols; /* separators and the line end */
    for (int64_t c = 0; c < n_cols; c++) {
        int64_t width = n_names[c] < 0 ? 20 : 0;
        for (int64_t k = 0; k < n_names[c]; k++) {
            int64_t j = first[c] + k;
            if (bounds[j + 1] - bounds[j] > width)
                width = bounds[j + 1] - bounds[j];
        }
        row_max += width;
    }
    char *buf = NULL;
    int64_t len = 0, cap = 0;
    int status = EV_OK;
    for (int64_t i = 0; i < n_rows && status == EV_OK; i++) {
        if (len + row_max > cap) {
            cap = 2 * cap > len + row_max ? 2 * cap : len + row_max + 65536;
            char *grown = realloc(buf, (size_t)cap);
            if (!grown) {
                status = EV_NOMEM;
                break;
            }
            buf = grown;
        }
        char *p = buf + len;
        for (int64_t c = 0; c < n_cols; c++) {
            int64_t v = cols[c][i];
            if (n_names[c] < 0) {
                p = put_int(p, v);
            } else if (v < 0 || v >= n_names[c]) {
                status = EV_PYTHON;
                break;
            } else {
                int64_t j = first[c] + v;
                memcpy(p, text + bounds[j], (size_t)(bounds[j + 1] - bounds[j]));
                p += bounds[j + 1] - bounds[j];
            }
            *p++ = c + 1 < n_cols ? ',' : '\n';
        }
        len = p - buf;
    }
    if (status != EV_OK) {
        free(buf);
        buf = NULL;
        len = 0;
    }
    *out = buf;
    *out_len = len;
    return status;
}
