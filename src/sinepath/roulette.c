/* The colony's compiled calls (see aco.py), built by native.py.
 *
 * sinepath_colony is one whole colony call after its layout checks: the
 * refusals of its draws and scores, the scores, the start columns, the
 * capped draws, the roulette steps and each ant's closed-tour length.
 * score is the (width, width) trail factor, which the call overwrites with
 * the scores, trail factor times weight, uniforms the (n_ants, width) float64
 * draw block, dist the (width, width) distance block, and orders and
 * lengths the (n_ants, width) tours and n_ants lengths it writes.  It
 * refuses, in this order and by a code that aco.py turns into its message,
 * a draw outside [0, 1] or NaN, a score that is not finite, and width
 * times the largest score reaching half the largest double.  Each ant
 * keeps its unvisited columns in ascending order, and at each step sums
 * their scores in that order, storing each running sum, sets
 * target = draw * total and picks the first column whose running sum
 * exceeds the target.  These are the doubles of the numpy loop's masked
 * prefix sums, where a visited column adds an exact 0.  The scan never
 * passes the last unvisited column, so a pick is always unvisited.
 *
 * On rows at least GROUP_MIN wide the ants run four at a time, so that four
 * independent chains of additions overlap where one ant's would each wait
 * for the one before.  The four share the step, and so the count r of nodes
 * each has left.  One pass adds each ant's scores in its own ascending
 * column order, the same additions as the one-ant scan, and stores each
 * running sum.  Every score is at least 2 * TRAIL_FLOOR > 0, so the sums
 * never decrease, and a lower-bound search for the first of the first r - 1
 * sums that exceeds the target (else the last column) picks the column the
 * one-ant scan stops at.  Narrower rows, where one ant's scan exits early
 * and predictably, and the n_ants mod 4 ants left over run one at a time.
 *
 * A length adds the tour's legs as objective.tour_lengths does: numpy's
 * pairwise sum of all legs but the closing one, then the closing leg.
 *
 * sinepath_update is update_pheromones for one colony whose tour has been
 * checked: it evaporates the trail and deposits the tour, with the numpy
 * path's products and sums.
 *
 * sinepath_draws fills one iteration's draw blocks, one per subset, from
 * each block's four PCG64 seed words: numpy's PCG64 stream and
 * Generator.random's doubles, bit for bit.
 *
 * Build without fast-math and with -ffp-contract=off, so that every sum and
 * product is one rounded IEEE double operation, as in numpy.
 */
#include <float.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Rows at least this wide run four ants at a time.  Replays of the calls of
 * real solves, one ant at a time against four, on a two-core x86_64 machine:
 * four took 18-24 % less time at widths 24 to 32 on trails of 25 iterations
 * and of 300, and 40-45 % less at 64 and 250.  At 20 they saved 6 % after
 * 300 iterations (22 % after 25), at 16 2 % (17 %), and on bench51's 12- and
 * 13-wide rows after 1000 iterations they took 12 % more. */
#define GROUP_MIN 24

/* Starts a tour at cur and lists the other width - 1 nodes in left. */
static void begin(int64_t cur, int64_t width, int64_t *order, int64_t *left)
{
    order[0] = cur;
    for (int64_t j = 0, r = 0; j < width; j++)
        if (j != cur)
            left[r++] = j;
}

/* The tour of ant a, with left and sums as scratch for width ids and width
 * running sums. */
static void one_ant(int64_t a, int64_t n_ants, int64_t width, const double *score,
                    const double *draws, const int64_t *start, int64_t *orders,
                    int64_t *left, double *sums)
{
    int64_t *order = orders + a * width;
    int64_t cur = start[a], r = width - 1;
    begin(cur, width, order, left);
    /* r nodes are left; the last one needs no roulette. */
    for (int64_t step = 1; r > 1; step++, r--) {
        const double *row = score + cur * width;
        double total = 0.0;
        for (int64_t k = 0; k < r; k++) {
            total += row[left[k]];
            sums[k] = total;
        }
        double target = draws[step * n_ants + a] * total;
        int64_t k = 0;
        while (k < r - 1 && sums[k] <= target)
            k++;
        cur = left[k];
        memmove(left + k, left + k + 1, (size_t)(r - 1 - k) * sizeof *left);
        order[step] = cur;
    }
    if (width > 1)
        order[width - 1] = left[0];
}

/* The tours of ants a to a + 3, with left and sums as scratch for 4 * width
 * ids and 4 * width running sums. */
static void four_ants(int64_t a, int64_t n_ants, int64_t width, const double *score,
                      const double *draws, const int64_t *start, int64_t *orders,
                      int64_t *left, double *sums)
{
    int64_t *l0 = left, *l1 = l0 + width, *l2 = l1 + width, *l3 = l2 + width;
    double *s0 = sums, *s1 = s0 + width, *s2 = s1 + width, *s3 = s2 + width;
    int64_t *o0 = orders + a * width, *o1 = o0 + width, *o2 = o1 + width, *o3 = o2 + width;
    int64_t c0 = start[a], c1 = start[a + 1], c2 = start[a + 2], c3 = start[a + 3];
    begin(c0, width, o0, l0);
    begin(c1, width, o1, l1);
    begin(c2, width, o2, l2);
    begin(c3, width, o3, l3);
    /* r nodes are left to each ant; the last one needs no roulette. */
    for (int64_t step = 1, r = width - 1; r > 1; step++, r--) {
        const double *w0 = score + c0 * width, *w1 = score + c1 * width,
                     *w2 = score + c2 * width, *w3 = score + c3 * width;
        double t0 = 0.0, t1 = 0.0, t2 = 0.0, t3 = 0.0;
        for (int64_t k = 0; k < r; k++) {
            t0 += w0[l0[k]];
            s0[k] = t0;
            t1 += w1[l1[k]];
            s1[k] = t1;
            t2 += w2[l2[k]];
            s2[k] = t2;
            t3 += w3[l3[k]];
            s3[k] = t3;
        }
        const double *d = draws + step * n_ants + a;
        double g0 = d[0] * t0, g1 = d[1] * t1, g2 = d[2] * t2, g3 = d[3] * t3;
        /* Each ant's pick lies in [b, b + n] of its first r - 1 sums: the
         * first above its target, or r - 1 if none is. */
        int64_t b0 = 0, b1 = 0, b2 = 0, b3 = 0, n = r - 1;
        while (n > 1) {
            int64_t half = n / 2;
            b0 += s0[b0 + half] <= g0 ? half : 0;
            b1 += s1[b1 + half] <= g1 ? half : 0;
            b2 += s2[b2 + half] <= g2 ? half : 0;
            b3 += s3[b3 + half] <= g3 ? half : 0;
            n -= half;
        }
        b0 += s0[b0] <= g0;
        b1 += s1[b1] <= g1;
        b2 += s2[b2] <= g2;
        b3 += s3[b3] <= g3;
        c0 = l0[b0];
        c1 = l1[b1];
        c2 = l2[b2];
        c3 = l3[b3];
        memmove(l0 + b0, l0 + b0 + 1, (size_t)(r - 1 - b0) * sizeof *l0);
        memmove(l1 + b1, l1 + b1 + 1, (size_t)(r - 1 - b1) * sizeof *l1);
        memmove(l2 + b2, l2 + b2 + 1, (size_t)(r - 1 - b2) * sizeof *l2);
        memmove(l3 + b3, l3 + b3 + 1, (size_t)(r - 1 - b3) * sizeof *l3);
        o0[step] = c0;
        o1[step] = c1;
        o2[step] = c2;
        o3[step] = c3;
    }
    o0[width - 1] = l0[0];
    o1[width - 1] = l1[0];
    o2[width - 1] = l2[0];
    o3[width - 1] = l3[0];
}

/* numpy's sum of the n doubles at x, as np.add.reduce adds a contiguous
 * float64 row: one running sum below 8 terms; up to 128, eight running sums
 * over the multiples of 8, combined pairwise, then the rest one by one;
 * above 128, the sums of two halves split at n / 2 rounded down to a
 * multiple of 8. */
static double pairwise_sum(const double *x, int64_t n)
{
    if (n < 8) {
        double sum = 0.0;
        for (int64_t i = 0; i < n; i++)
            sum += x[i];
        return sum;
    }
    if (n <= 128) {
        double r[8];
        memcpy(r, x, sizeof r);
        int64_t i = 8;
        for (; i < n - n % 8; i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += x[i + j];
        double sum = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            sum += x[i];
        return sum;
    }
    int64_t half = n / 2;
    half -= half % 8;
    return pairwise_sum(x, half) + pairwise_sum(x + half, n - half);
}

/* The closed-tour length of each ant's tour, with legs as scratch for
 * width doubles. */
static void tour_lengths(int64_t n_ants, int64_t width, const double *dist,
                         const int64_t *orders, double *lengths, double *legs)
{
    for (int64_t a = 0; a < n_ants; a++) {
        const int64_t *order = orders + a * width;
        for (int64_t i = 0; i + 1 < width; i++)
            legs[i] = dist[order[i] * width + order[i + 1]];
        lengths[a] = pairwise_sum(legs, width - 1) + dist[order[width - 1] * width + order[0]];
    }
}

/* The refusals of sinepath_colony, in the order it makes them; aco.py's
 * _DRAW_OUTSIDE, _SCORE_NOT_FINITE and _SCORES_TOO_LARGE are these codes. */
enum { DRAW_OUTSIDE = 1, SCORE_NOT_FINITE = 2, SCORES_TOO_LARGE = 3 };

/* Forms the scores score * weight in place in score, the call's trail
 * factor, and returns 0, SCORE_NOT_FINITE where one is NaN or infinite, or
 * SCORES_TOO_LARGE where width times the largest reaches half the largest
 * double.  The pass that forms them only ors one compare per cell; the
 * scores are told apart only once one has failed it. */
static int scores(int64_t width, double *restrict score, const double *restrict weight)
{
    const double limit = DBL_MAX / 2 / (double)width;
    int64_t cells = width * width;
    int bad = 0;
    for (int64_t i = 0; i < cells; i++) {
        double v = score[i] * weight[i];
        score[i] = v;
        bad |= !(v < limit);
    }
    if (!bad)
        return 0;
    for (int64_t i = 0; i < cells; i++)
        if (score[i] != score[i] || score[i] > DBL_MAX)
            return SCORE_NOT_FINITE;
    return SCORES_TOO_LARGE;
}

/* Every ant starts at start_local, or, where it is -1, at its first draw
 * times width, truncated and kept below width.  score holds the call's
 * trail factor and is overwritten with its scores.  Returns 0, a refusal:
 * DRAW_OUTSIDE where a draw lies outside [0, 1] or is NaN, else what
 * scores() returns; or -1 if the call's scratch cannot be allocated. */
int sinepath_colony(int64_t n_ants, int64_t width, double *score, const double *weight,
                    const double *uniforms, int64_t start_local, const double *dist,
                    int64_t *orders, double *lengths)
{
    int bad = 0;
    for (int64_t i = 0; i < n_ants * width; i++)
        bad |= !(uniforms[i] >= 0.0) | !(uniforms[i] <= 1.0);
    if (bad)
        return DRAW_OUTSIDE;
    int refused = scores(width, score, weight);
    if (refused)
        return refused;
    /* The (width, n_ants) capped draws, each ant's start, and four ants'
     * unvisited lists and running sums. */
    double *draws = malloc((size_t)((width + 1) * n_ants + 8 * width) * sizeof *draws);
    if (draws == NULL)
        return -1;
    int64_t *start = (int64_t *)(draws + width * n_ants), *scratch = start + n_ants;
    double *sums = (double *)(scratch + 4 * width);
    /* The largest double below 1, so that a target stays below its total. */
    const double cap = 1.0 - 0x1p-53;
    for (int64_t a = 0; a < n_ants; a++) {
        const double *u = uniforms + a * width;
        if (start_local < 0) {
            int64_t first = (int64_t)(u[0] * (double)width);
            start[a] = first < width - 1 ? first : width - 1;
        } else {
            start[a] = start_local;
        }
        for (int64_t step = 1; step < width; step++)
            draws[step * n_ants + a] = u[step] < cap ? u[step] : cap;
    }
    int64_t a = 0;
    if (width >= GROUP_MIN)
        for (; a + 4 <= n_ants; a += 4)
            four_ants(a, n_ants, width, score, draws, start, orders, scratch, sums);
    for (; a < n_ants; a++)
        one_ant(a, n_ants, width, score, draws, start, orders, scratch, sums);
    tour_lengths(n_ants, width, dist, orders, lengths, sums);
    free(draws);
    return 0;
}

/* numpy's PCG64 (O'Neill, "PCG", HMC-CS-2014-0905, 2014): a 128-bit linear
 * congruential state, kept as two 64-bit words so that the file stays
 * standard C, and the XSL-RR output of 64 bits. */
typedef struct {
    uint64_t hi, lo;
} u128;

static u128 add128(u128 x, u128 y)
{
    u128 sum = {x.hi + y.hi, x.lo + y.lo};
    sum.hi += sum.lo < x.lo;
    return sum;
}

/* The low 128 bits of x * y. */
static u128 mul128(u128 x, u128 y)
{
    uint64_t x0 = x.lo & 0xFFFFFFFFu, x1 = x.lo >> 32, y0 = y.lo & 0xFFFFFFFFu, y1 = y.lo >> 32;
    uint64_t p01 = x0 * y1, p10 = x1 * y0;
    uint64_t mid = ((x0 * y0) >> 32) + (p01 & 0xFFFFFFFFu) + (p10 & 0xFFFFFFFFu);
    u128 product = {x1 * y1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32), x.lo * y.lo};
    product.hi += x.lo * y.hi + x.hi * y.lo;
    return product;
}

static const u128 PCG_MULTIPLIER = {0x2360ED051FC65DA4u, 0x4385DF649FCCF645u};

/* Fills each of n_blocks blocks at out, one after the other: block b is
 * the n_ants * widths[b] doubles of numpy's
 * Generator(PCG64(seed)).random((n_ants, widths[b])), where the seed hands
 * PCG64 the four 64-bit words states[4b : 4b + 4].  As numpy's
 * pcg64_set_seed does, the first two words are the initial state and the
 * last two the stream, high word first; each double is (x >> 11) * 2^-53
 * of the next output x. */
void sinepath_draws(int64_t n_blocks, const uint64_t *states, int64_t n_ants,
                    const int64_t *widths, double *out)
{
    for (int64_t b = 0; b < n_blocks; b++) {
        const uint64_t *w = states + 4 * b;
        u128 inc = {w[2] << 1 | w[3] >> 63, w[3] << 1 | 1u}, seed = {w[0], w[1]};
        u128 state = add128(inc, seed);
        state = add128(mul128(state, PCG_MULTIPLIER), inc);
        for (int64_t i = n_ants * widths[b]; i > 0; i--) {
            state = add128(mul128(state, PCG_MULTIPLIER), inc);
            uint64_t x = state.hi ^ state.lo;
            unsigned rot = (unsigned)(state.hi >> 58);
            x = x >> rot | x << ((64 - rot) & 63);
            *out++ = (double)(x >> 11) * 0x1p-53;
        }
    }
}

/* Evaporates the (width, width) trail tau by keep = 1 - rho, then adds
 * scale * gain on the trail of each leg ring[i] -> ring[i + 1] of a tour of
 * n_nodes distinct nodes closed on its start, and of each leg's reverse
 * when n_nodes > 2.  A one-node tour deposits nothing. */
void sinepath_update(int64_t width, double *tau, double keep, const int64_t *ring,
                     int64_t n_nodes, const double *gain, double scale)
{
    /* Eight cells a round, a count the compiler runs as whole vector
     * products at -O2. */
    int64_t cells = width * width, i = 0;
    for (; i + 8 <= cells; i += 8)
        for (int j = 0; j < 8; j++)
            tau[i + j] *= keep;
    for (; i < cells; i++)
        tau[i] *= keep;
    if (n_nodes < 2)
        return;
    for (i = 0; i < n_nodes; i++) {
        int64_t fwd = ring[i] * width + ring[i + 1], bwd = ring[i + 1] * width + ring[i];
        double amount = scale * gain[fwd];
        tau[fwd] += amount;
        if (n_nodes > 2)
            tau[bwd] += amount;
    }
}
