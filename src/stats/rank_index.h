#ifndef TARPIT_STATS_RANK_INDEX_H_
#define TARPIT_STATS_RANK_INDEX_H_

#include <cstdint>

namespace tarpit {

/// Maintains the popularity ordering of tracked keys so the delay engine
/// can ask "what is this tuple's rank?" (rank 1 = most popular) and
/// "what is f_max?" in O(log n): an exact order-statistics treap keyed
/// by (count desc, key asc).
class TreapRankIndex {
 public:
  TreapRankIndex();
  ~TreapRankIndex();

  TreapRankIndex(const TreapRankIndex&) = delete;
  TreapRankIndex& operator=(const TreapRankIndex&) = delete;

  /// Registers a count change for `key`. `old_count` == 0 with
  /// `was_tracked` == false means the key is new to the index.
  void UpdateCount(int64_t key, double old_count, bool was_tracked,
                   double new_count);

  /// 1-based rank of a key currently holding `count` (ties broken by
  /// key, deterministic). Precondition: the key is tracked.
  uint64_t Rank(int64_t key, double count) const;

  /// Count of the most popular tracked key (0 when empty).
  double MaxCount() const;

  uint64_t NumTracked() const;

  /// Multiplies every stored count by `factor` (> 0), preserving order;
  /// used when the owning tracker renormalizes its decay scale.
  void Rescale(double factor);

 private:
  struct Node;
  // (count, key) ordering: higher count first, then smaller key.
  static bool Before(double c1, int64_t k1, double c2, int64_t k2);
  static uint64_t Size(const Node* n);
  Node* Merge(Node* a, Node* b);
  // Splits into (< pivot) and (>= pivot) in Before-order.
  void Split(Node* t, double count, int64_t key, Node** left,
             Node** right);
  void FreeTree(Node* n);
  void RescaleTree(Node* n, double factor);

  Node* root_ = nullptr;
  uint64_t rng_state_;
};

}  // namespace tarpit

#endif  // TARPIT_STATS_RANK_INDEX_H_
