#include "stats/rank_index.h"

#include <cassert>
#include <cmath>

namespace tarpit {

struct TreapRankIndex::Node {
  double count;
  int64_t key;
  uint64_t priority;
  uint64_t size = 1;
  Node* left = nullptr;
  Node* right = nullptr;
};

namespace {
uint64_t NextPriority(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}
}  // namespace

TreapRankIndex::TreapRankIndex() : rng_state_(0xC0FFEE1234ULL) {}

TreapRankIndex::~TreapRankIndex() { FreeTree(root_); }

bool TreapRankIndex::Before(double c1, int64_t k1, double c2, int64_t k2) {
  if (c1 != c2) return c1 > c2;  // Higher count ranks earlier.
  return k1 < k2;
}

uint64_t TreapRankIndex::Size(const Node* n) { return n ? n->size : 0; }

TreapRankIndex::Node* TreapRankIndex::Merge(Node* a, Node* b) {
  if (a == nullptr) return b;
  if (b == nullptr) return a;
  if (a->priority > b->priority) {
    a->right = Merge(a->right, b);
    a->size = 1 + Size(a->left) + Size(a->right);
    return a;
  }
  b->left = Merge(a, b->left);
  b->size = 1 + Size(b->left) + Size(b->right);
  return b;
}

void TreapRankIndex::Split(Node* t, double count, int64_t key, Node** left,
                           Node** right) {
  if (t == nullptr) {
    *left = nullptr;
    *right = nullptr;
    return;
  }
  if (Before(t->count, t->key, count, key)) {
    Split(t->right, count, key, &t->right, right);
    *left = t;
    t->size = 1 + Size(t->left) + Size(t->right);
  } else {
    Split(t->left, count, key, left, &t->left);
    *right = t;
    t->size = 1 + Size(t->left) + Size(t->right);
  }
}

void TreapRankIndex::UpdateCount(int64_t key, double old_count,
                                 bool was_tracked, double new_count) {
  if (was_tracked) {
    // Erase the (old_count, key) node: split around it, drop it.
    Node *left, *mid_right, *mid, *right;
    Split(root_, old_count, key, &left, &mid_right);
    // mid_right's first node in order should be exactly our node.
    // Split mid_right at the position just after (old_count, key):
    // everything Before-or-equal goes left.  Use the successor pivot:
    // (old_count, key+1) sorts immediately after (old_count, key).
    if (key != INT64_MAX) {
      Split(mid_right, old_count, key + 1, &mid, &right);
    } else {
      // key == INT64_MAX: split by slightly smaller count.
      mid = mid_right;
      right = nullptr;
      if (mid != nullptr) {
        Split(mid_right, std::nextafter(old_count, -1.0), INT64_MIN, &mid,
              &right);
      }
    }
    assert(Size(mid) == 1);
    FreeTree(mid);
    root_ = Merge(left, right);
  }
  // Insert (new_count, key).
  Node* node = new Node{new_count, key, NextPriority(&rng_state_)};
  Node *left, *right;
  Split(root_, new_count, key, &left, &right);
  root_ = Merge(Merge(left, node), right);
}

uint64_t TreapRankIndex::Rank(int64_t key, double count) const {
  uint64_t rank = 1;
  const Node* n = root_;
  while (n != nullptr) {
    if (n->count == count && n->key == key) {
      return rank + Size(n->left);
    }
    if (Before(count, key, n->count, n->key)) {
      n = n->left;
    } else {
      rank += Size(n->left) + 1;
      n = n->right;
    }
  }
  // Key not present (caller bug); report the bottom rank rather than
  // crashing in release builds.
  assert(false && "Rank() on untracked key");
  return rank;
}

double TreapRankIndex::MaxCount() const {
  const Node* n = root_;
  if (n == nullptr) return 0;
  while (n->left != nullptr) n = n->left;
  return n->count;
}

uint64_t TreapRankIndex::NumTracked() const { return Size(root_); }

void TreapRankIndex::Rescale(double factor) {
  RescaleTree(root_, factor);
}

void TreapRankIndex::RescaleTree(Node* n, double factor) {
  if (n == nullptr) return;
  n->count *= factor;
  RescaleTree(n->left, factor);
  RescaleTree(n->right, factor);
}

void TreapRankIndex::FreeTree(Node* n) {
  if (n == nullptr) return;
  FreeTree(n->left);
  FreeTree(n->right);
  delete n;
}

}  // namespace tarpit
