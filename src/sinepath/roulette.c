/* The colony's roulette step loop (see aco.py), compiled by native.py.
 *
 * score is the (width, width) successor score matrix, draws the (width,
 * n_ants) capped draws, start each ant's first node and orders the (n_ants,
 * width) tours it writes; left is scratch for width ids.  Each ant keeps its
 * unvisited columns in ascending order, and at each step sums their scores
 * in that order, sets target = draw * total and picks the first column whose
 * running sum exceeds the target.  These are the doubles of the numpy loop's
 * masked prefix sums, where a visited column adds an exact 0.  The scan never
 * passes the last unvisited column, so a pick is always unvisited.
 *
 * Build without fast-math and with -ffp-contract=off, so that every sum and
 * product is one rounded IEEE double operation, as in numpy.
 */
#include <stdint.h>
#include <string.h>

void sinepath_roulette(int64_t n_ants, int64_t width, const double *score,
                       const double *draws, const int64_t *start,
                       int64_t *orders, int64_t *left)
{
    for (int64_t a = 0; a < n_ants; a++) {
        int64_t *order = orders + a * width;
        int64_t cur = start[a], r = 0;
        order[0] = cur;
        for (int64_t j = 0; j < width; j++)
            if (j != cur)
                left[r++] = j;
        /* r nodes are left; the last one needs no roulette. */
        for (int64_t step = 1; r > 1; step++, r--) {
            const double *row = score + cur * width;
            double total = 0.0, sum = 0.0;
            for (int64_t k = 0; k < r; k++)
                total += row[left[k]];
            double target = draws[step * n_ants + a] * total;
            int64_t k = 0;
            for (; k < r - 1; k++) {
                sum += row[left[k]];
                if (sum > target)
                    break;
            }
            cur = left[k];
            memmove(left + k, left + k + 1, (size_t)(r - 1 - k) * sizeof *left);
            order[step] = cur;
        }
        if (width > 1)
            order[width - 1] = left[0];
    }
}
