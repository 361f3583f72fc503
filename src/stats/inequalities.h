// The auxiliary inequalities of Appendix D that are not tied to a single
// distribution: the log sum inequality (Lemma D.8), the chord bound for
// g(t) = -t ln t (Lemma D.2, second part), and Lemma D.6.
#ifndef AJD_STATS_INEQUALITIES_H_
#define AJD_STATS_INEQUALITIES_H_

#include <vector>

namespace ajd {

/// Both sides of the log sum inequality (Lemma D.8) for nonnegative a_i,
/// b_i:  sum a_i ln(sum a / sum b)  <=  sum a_i ln(a_i / b_i).
struct LogSumSides {
  double lhs = 0.0;
  double rhs = 0.0;
};

/// Evaluates both sides; terms with a_i = 0 contribute 0 to the rhs, and a
/// positive a_i with b_i = 0 makes the rhs +infinity.
LogSumSides LogSumInequality(const std::vector<double>& a,
                             const std::vector<double>& b);

/// The chord bound |g(t) - g(s)| <= 2 g(|s - t|) for g(t) = -t ln t and
/// s, t in [0, 1] (Lemma D.2). Returns the bound 2 g(|s - t|).
double NegTLogTChordBound(double s, double t);

/// Lemma D.6 (corrected): returns a threshold x0 such that x >= x0 implies
/// x / ln x >= y, for y >= e.
///
/// ERRATUM NOTE: the paper states the threshold as x0 = y ln y, but that
/// does not suffice for y > e: at x = y ln y one gets
/// x / ln x = y ln y / (ln y + ln ln y) < y whenever ln ln y > 0. The
/// standard threshold x0 = 2 y ln y does suffice (for all y >= e), and the
/// factor 2 is absorbed by the paper's generous constant in condition (40).
/// LemmaD6.PaperThresholdIsInsufficient in tests/stats_test.cc pins both
/// halves of this note.
double LemmaD6Threshold(double y);

}  // namespace ajd

#endif  // AJD_STATS_INEQUALITIES_H_
