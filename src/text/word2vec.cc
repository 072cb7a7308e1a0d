#include "text/word2vec.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/rng.h"
#include "text/tokenizer.h"

namespace saged::text {

namespace {
constexpr size_t kUnigramTableSize = 1 << 16;
/// Largest context radius; each center word draws its radius from [1, 3].
constexpr size_t kWindow = 3;
/// Negative samples per (center, context) pair.
constexpr size_t kNegative = 4;
/// Initial SGD step, decayed linearly per epoch down to a tenth of itself.
constexpr double kLearningRate = 0.05;

double Sigmoid(double z) { return 1.0 / (1.0 + std::exp(-z)); }
}  // namespace

Status Word2Vec::Train(const std::vector<std::vector<std::string>>& documents) {
  Rng rng(seed_);

  // Optional document subsampling for scalability.
  std::vector<const std::vector<std::string>*> docs;
  docs.reserve(std::min(documents.size(), options_.max_documents));
  if (documents.size() > options_.max_documents) {
    auto keep = rng.SampleWithoutReplacement(documents.size(),
                                             options_.max_documents);
    std::sort(keep.begin(), keep.end());
    for (size_t i : keep) docs.push_back(&documents[i]);
  } else {
    for (const auto& d : documents) docs.push_back(&d);
  }

  // Vocabulary with counts.
  std::unordered_map<std::string, size_t> counts;
  for (const auto* doc : docs) {
    for (const auto& tok : *doc) ++counts[tok];
  }
  vocab_.clear();
  std::vector<size_t> freq;
  for (const auto& [word, count] : counts) {
    vocab_.emplace(word, vocab_.size());
    freq.push_back(count);
  }
  if (vocab_.empty()) return Status::OK();  // nothing to train; Embed -> zeros

  const size_t v = vocab_.size();
  const size_t d = options_.dim;
  in_vectors_.resize(v * d);
  out_vectors_.assign(v * d, 0.0);
  for (auto& w : in_vectors_) {
    w = (rng.Uniform() - 0.5) / static_cast<double>(d);
  }

  // Unigram^0.75 negative-sampling table.
  std::vector<double> pow_freq(v);
  for (size_t i = 0; i < v; ++i) {
    pow_freq[i] = std::pow(static_cast<double>(freq[i]), 0.75);
  }
  double total = std::accumulate(pow_freq.begin(), pow_freq.end(), 0.0);
  unigram_table_.resize(kUnigramTableSize);
  {
    size_t word = 0;
    double cum = pow_freq[0] / total;
    for (size_t i = 0; i < kUnigramTableSize; ++i) {
      unigram_table_[i] = word;
      double frac = static_cast<double>(i + 1) / kUnigramTableSize;
      while (frac > cum && word + 1 < v) {
        ++word;
        cum += pow_freq[word] / total;
      }
    }
  }

  // Pre-encode documents as id sequences.
  std::vector<std::vector<size_t>> encoded;
  encoded.reserve(docs.size());
  for (const auto* doc : docs) {
    std::vector<size_t> ids;
    ids.reserve(doc->size());
    for (const auto& tok : *doc) {
      auto it = vocab_.find(tok);
      if (it != vocab_.end()) ids.push_back(it->second);
    }
    if (ids.size() >= 2) encoded.push_back(std::move(ids));
  }

  std::vector<double> grad(d);
  for (size_t epoch = 0; epoch < options_.epochs; ++epoch) {
    double lr = kLearningRate *
                (1.0 - static_cast<double>(epoch) /
                           static_cast<double>(options_.epochs));
    lr = std::max(lr, kLearningRate * 0.1);
    for (const auto& ids : encoded) {
      for (size_t center = 0; center < ids.size(); ++center) {
        size_t win = 1 + static_cast<size_t>(rng.UniformInt(kWindow));
        size_t lo = center >= win ? center - win : 0;
        size_t hi = std::min(center + win, ids.size() - 1);
        for (size_t ctx = lo; ctx <= hi; ++ctx) {
          if (ctx == center) continue;
          double* v_in = &in_vectors_[ids[center] * d];
          std::fill(grad.begin(), grad.end(), 0.0);
          // Positive sample + negatives.
          for (size_t s = 0; s <= kNegative; ++s) {
            size_t target;
            double label;
            if (s == 0) {
              target = ids[ctx];
              label = 1.0;
            } else {
              target = unigram_table_[rng.UniformInt(kUnigramTableSize)];
              if (target == ids[ctx]) continue;
              label = 0.0;
            }
            double* v_out = &out_vectors_[target * d];
            double dot = 0.0;
            for (size_t j = 0; j < d; ++j) dot += v_in[j] * v_out[j];
            double g = (Sigmoid(dot) - label) * lr;
            for (size_t j = 0; j < d; ++j) {
              grad[j] += g * v_out[j];
              v_out[j] -= g * v_in[j];
            }
          }
          for (size_t j = 0; j < d; ++j) v_in[j] -= grad[j];
        }
      }
    }
  }
  return Status::OK();
}

DocumentReservoir::DocumentReservoir(size_t capacity, uint64_t seed)
    : capacity_(capacity == 0 ? 1 : capacity), rng_(seed) {
  sample_.reserve(std::min<size_t>(capacity_, 1 << 16));
}

void DocumentReservoir::Add(std::vector<std::string> document) {
  size_t index = seen_++;
  if (index < capacity_) {
    sample_.emplace_back(index, std::move(document));
    return;
  }
  // Algorithm R: item `index` survives with probability capacity / (index+1),
  // evicting a uniformly random resident.
  size_t j = static_cast<size_t>(rng_.UniformInt(index + 1));
  if (j < capacity_) sample_[j] = {index, std::move(document)};
}

std::vector<std::vector<std::string>> DocumentReservoir::Take() {
  std::sort(sample_.begin(), sample_.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<std::vector<std::string>> out;
  out.reserve(sample_.size());
  for (auto& [index, doc] : sample_) out.push_back(std::move(doc));
  sample_.clear();
  return out;
}

std::vector<double> Word2Vec::Embed(const std::string& word) const {
  std::vector<double> out(options_.dim, 0.0);
  auto it = vocab_.find(word);
  if (it == vocab_.end() || in_vectors_.empty()) return out;
  const double* v = &in_vectors_[it->second * options_.dim];
  std::copy(v, v + options_.dim, out.begin());
  return out;
}

std::vector<double> Word2Vec::EmbedValue(std::string_view value) const {
  std::vector<double> acc(options_.dim, 0.0);
  EmbedValueInto(value, acc);
  return acc;
}

void Word2Vec::EmbedValueInto(std::string_view value,
                              std::span<double> out) const {
  std::fill(out.begin(), out.end(), 0.0);
  auto tokens = WordTokens(value);
  size_t hits = 0;
  for (const auto& tok : tokens) {
    auto it = vocab_.find(tok);
    if (it == vocab_.end() || in_vectors_.empty()) continue;
    const double* v = &in_vectors_[it->second * options_.dim];
    for (size_t j = 0; j < options_.dim; ++j) out[j] += v[j];
    ++hits;
  }
  if (hits > 0) {
    for (auto& a : out) a /= static_cast<double>(hits);
  }
}

}  // namespace saged::text
