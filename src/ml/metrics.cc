#include "ml/metrics.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "common/contracts.h"

namespace saged::ml {

double BinaryConfusion::Precision() const {
  return (tp + fp) == 0 ? 0.0 : static_cast<double>(tp) / (tp + fp);
}
double BinaryConfusion::Recall() const {
  return (tp + fn) == 0 ? 0.0 : static_cast<double>(tp) / (tp + fn);
}
double BinaryConfusion::F1() const {
  double p = Precision();
  double r = Recall();
  return (p + r) == 0.0 ? 0.0 : 2.0 * p * r / (p + r);
}

BinaryConfusion Confusion(const std::vector<int>& truth,
                          const std::vector<int>& predicted) {
  SAGED_CHECK(truth.size() == predicted.size()) << "length mismatch";
  BinaryConfusion c;
  for (size_t i = 0; i < truth.size(); ++i) {
    bool t = truth[i] != 0;
    bool p = predicted[i] != 0;
    if (t && p) {
      ++c.tp;
    } else if (!t && p) {
      ++c.fp;
    } else if (t && !p) {
      ++c.fn;
    } else {
      ++c.tn;
    }
  }
  return c;
}

double Accuracy(const std::vector<int>& truth,
                const std::vector<int>& predicted) {
  SAGED_CHECK(truth.size() == predicted.size()) << "length mismatch";
  if (truth.empty()) return 0.0;
  size_t hit = 0;
  for (size_t i = 0; i < truth.size(); ++i) {
    if (truth[i] == predicted[i]) ++hit;
  }
  return static_cast<double>(hit) / truth.size();
}

double MacroF1(const std::vector<int>& truth,
               const std::vector<int>& predicted) {
  SAGED_CHECK(truth.size() == predicted.size()) << "length mismatch";
  std::set<int> classes(truth.begin(), truth.end());
  if (classes.empty()) return 0.0;
  double sum = 0.0;
  for (int cls : classes) {
    size_t tp = 0;
    size_t fp = 0;
    size_t fn = 0;
    for (size_t i = 0; i < truth.size(); ++i) {
      bool t = truth[i] == cls;
      bool p = predicted[i] == cls;
      if (t && p) {
        ++tp;
      } else if (!t && p) {
        ++fp;
      } else if (t && !p) {
        ++fn;
      }
    }
    double prec = (tp + fp) == 0 ? 0.0 : static_cast<double>(tp) / (tp + fp);
    double rec = (tp + fn) == 0 ? 0.0 : static_cast<double>(tp) / (tp + fn);
    sum += (prec + rec) == 0.0 ? 0.0 : 2.0 * prec * rec / (prec + rec);
  }
  return sum / static_cast<double>(classes.size());
}

double MeanSquaredError(const std::vector<double>& truth,
                        const std::vector<double>& predicted) {
  SAGED_CHECK(truth.size() == predicted.size()) << "length mismatch";
  if (truth.empty()) return 0.0;
  double acc = 0.0;
  for (size_t i = 0; i < truth.size(); ++i) {
    double d = truth[i] - predicted[i];
    acc += d * d;
  }
  return acc / truth.size();
}

double MeanAbsoluteError(const std::vector<double>& truth,
                         const std::vector<double>& predicted) {
  SAGED_CHECK(truth.size() == predicted.size()) << "length mismatch";
  if (truth.empty()) return 0.0;
  double acc = 0.0;
  for (size_t i = 0; i < truth.size(); ++i) {
    acc += std::abs(truth[i] - predicted[i]);
  }
  return acc / truth.size();
}

double R2Score(const std::vector<double>& truth,
               const std::vector<double>& predicted) {
  SAGED_CHECK(truth.size() == predicted.size()) << "length mismatch";
  if (truth.empty()) return 0.0;
  double mean = 0.0;
  for (double v : truth) mean += v;
  mean /= truth.size();
  double ss_res = 0.0;
  double ss_tot = 0.0;
  for (size_t i = 0; i < truth.size(); ++i) {
    double dr = truth[i] - predicted[i];
    double dt = truth[i] - mean;
    ss_res += dr * dr;
    ss_tot += dt * dt;
  }
  if (ss_tot == 0.0) return ss_res == 0.0 ? 1.0 : 0.0;
  return 1.0 - ss_res / ss_tot;
}

}  // namespace saged::ml
