#ifndef SAGED_TEXT_WORD2VEC_H_
#define SAGED_TEXT_WORD2VEC_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/status.h"

namespace saged::text {

/// Skip-gram training hyperparameters. The context window (3), negative
/// samples per pair (4) and initial learning rate (0.05) are fixed in
/// word2vec.cc, and every token of the corpus joins the vocabulary.
struct Word2VecOptions {
  size_t dim = 8;
  size_t epochs = 3;
  /// Documents are subsampled down to this many before training; embedding
  /// quality saturates quickly on tabular corpora and this keeps SAGED's
  /// detection time flat in dataset size (matching the paper's efficiency
  /// profile).
  size_t max_documents = 20000;
};

/// Word2Vec skip-gram model with negative sampling (Mikolov et al. 2013).
/// SAGED trains one per dataset, treating each tuple as a document, and
/// represents a cell as the average of its tokens' vectors.
class Word2Vec {
 public:
  explicit Word2Vec(Word2VecOptions options = {}, uint64_t seed = 42)
      : options_(options), seed_(seed) {}

  /// Trains on tokenized documents.
  Status Train(const std::vector<std::vector<std::string>>& documents);

  size_t dim() const { return options_.dim; }
  size_t VocabSize() const { return vocab_.size(); }

  /// Embedding of one word (zeros when out of vocabulary or untrained).
  std::vector<double> Embed(const std::string& word) const;

  /// Average embedding of the word tokens of a raw cell value.
  std::vector<double> EmbedValue(std::string_view value) const;

  /// Allocation-light form of EmbedValue: writes the dim() averaged
  /// components into `out` (which must have size dim()), bit-identical to
  /// EmbedValue (same accumulation and division order).
  void EmbedValueInto(std::string_view value, std::span<double> out) const;

 private:
  Word2VecOptions options_;
  uint64_t seed_;
  std::unordered_map<std::string, size_t> vocab_;
  std::vector<double> in_vectors_;   // vocab x dim
  std::vector<double> out_vectors_;  // vocab x dim
  std::vector<size_t> unigram_table_;
};

/// Seeded reservoir sample (Algorithm R) over tokenized documents, restored
/// to stream order on Take(). For streams of at most `capacity` documents it
/// is the identity, so small tables are unaffected. Both the in-memory and
/// the streaming detection paths funnel their Word2Vec corpus through one of
/// these with the same seed: the sampled corpus depends only on the document
/// stream, never on how the rows were blocked, which is what makes streamed
/// embeddings bit-identical to in-memory ones.
class DocumentReservoir {
 public:
  explicit DocumentReservoir(size_t capacity, uint64_t seed);

  /// Folds the next document of the stream into the sample.
  void Add(std::vector<std::string> document);

  /// Documents offered so far (>= the sample size).
  size_t seen() const { return seen_; }

  /// The sampled documents in original stream order. Leaves the reservoir
  /// empty.
  std::vector<std::vector<std::string>> Take();

 private:
  size_t capacity_;
  Rng rng_;
  size_t seen_ = 0;
  /// (stream index, document) pairs; unordered until Take() sorts them.
  std::vector<std::pair<size_t, std::vector<std::string>>> sample_;
};

}  // namespace saged::text

#endif  // SAGED_TEXT_WORD2VEC_H_
