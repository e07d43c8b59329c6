// Structural and search tests for the DBCH-tree.

#include "index/dbch_tree.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <queue>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/binio.h"
#include "util/rng.h"

namespace sapla {
namespace {

// A simple 1-D entry universe: entry id -> scalar value; distance = |a - b|.
class ScalarUniverse {
 public:
  explicit ScalarUniverse(std::vector<double> values)
      : values_(std::move(values)) {}

  DbchTree::PairDistFn PairDist() const {
    return [this](size_t a, size_t b) {
      return std::fabs(values_[a] - values_[b]);
    };
  }
  DbchTree::QueryDistFn QueryDist(double q) const {
    return [this, q](size_t id) { return std::fabs(values_[id] - q); };
  }
  double value(size_t id) const { return values_[id]; }
  size_t size() const { return values_.size(); }

 private:
  std::vector<double> values_;
};

ScalarUniverse RandomUniverse(uint64_t seed, size_t count) {
  Rng rng(seed);
  std::vector<double> v(count);
  for (auto& x : v) x = rng.Uniform(-100.0, 100.0);
  return ScalarUniverse(std::move(v));
}

TEST(DbchTree, AllEntriesReachable) {
  const ScalarUniverse u = RandomUniverse(1, 200);
  DbchTree tree(u.PairDist());
  for (size_t i = 0; i < u.size(); ++i) tree.Insert(i);
  EXPECT_EQ(tree.size(), u.size());

  std::set<size_t> seen;
  tree.BestFirstSearch([](size_t) { return 0.0; },
                       [&](size_t id, double bound) {
                         seen.insert(id);
                         return bound;
                       });
  EXPECT_EQ(seen.size(), u.size());
}

TEST(DbchTree, FillFactorsRespected) {
  const ScalarUniverse u = RandomUniverse(2, 300);
  DbchTree tree(u.PairDist(), DbchTreeOptions{2, 5});
  for (size_t i = 0; i < u.size(); ++i) tree.Insert(i);
  const TreeStats stats = tree.ComputeStats();
  EXPECT_GE(stats.avg_leaf_entries, 2.0);
  EXPECT_LE(stats.avg_leaf_entries, 5.0);
  EXPECT_EQ(stats.entries, 300u);
}

TEST(DbchTree, HigherLeafOccupancyThanMinimum) {
  // The paper's Fig. 15: DBCH leaves average ~4 entries (vs ~2 for the
  // R-tree under APCA MBRs). Distance-based grouping should keep occupancy
  // well above the minimum fill on clustered data.
  Rng rng(3);
  std::vector<double> values;
  for (int cluster = 0; cluster < 10; ++cluster) {
    const double center = rng.Uniform(-1000.0, 1000.0);
    for (int i = 0; i < 30; ++i) values.push_back(center + rng.Gaussian());
  }
  const ScalarUniverse u{values};
  DbchTree tree(u.PairDist(), DbchTreeOptions{2, 5});
  for (size_t i = 0; i < u.size(); ++i) tree.Insert(i);
  EXPECT_GE(tree.ComputeStats().avg_leaf_entries, 2.5);
}

TEST(DbchTree, NearestNeighborFoundOnScalarData) {
  // In 1-D with the exact metric, the hull rule is conservative enough for
  // best-first search to find the true NN.
  const ScalarUniverse u = RandomUniverse(4, 150);
  DbchTree tree(u.PairDist());
  for (size_t i = 0; i < u.size(); ++i) tree.Insert(i);

  Rng rng(44);
  for (int trial = 0; trial < 20; ++trial) {
    const double q = rng.Uniform(-120.0, 120.0);
    double best = 1e300;
    for (size_t i = 0; i < u.size(); ++i)
      best = std::min(best, std::fabs(u.value(i) - q));

    double found = 1e300;
    tree.BestFirstSearch(u.QueryDist(q), [&](size_t id, double bound) {
      found = std::min(found, std::fabs(u.value(id) - q));
      return std::min(bound, found);
    });
    EXPECT_NEAR(found, best, 1e-12);
  }
}

TEST(DbchTree, SearchPrunesOnClusteredData) {
  Rng rng(5);
  std::vector<double> values;
  for (int cluster = 0; cluster < 8; ++cluster) {
    const double center = rng.Uniform(-5000.0, 5000.0);
    for (int i = 0; i < 40; ++i) values.push_back(center + rng.Gaussian());
  }
  const ScalarUniverse u{values};
  DbchTree tree(u.PairDist());
  for (size_t i = 0; i < u.size(); ++i) tree.Insert(i);

  const double q = u.value(13);
  size_t touched = 0;
  double found = 1e300;
  tree.BestFirstSearch(u.QueryDist(q), [&](size_t id, double bound) {
    ++touched;
    found = std::min(found, std::fabs(u.value(id) - q));
    return std::min(bound, found);
  });
  EXPECT_NEAR(found, 0.0, 1e-12);
  EXPECT_LT(touched, u.size() / 2);
}

TEST(DbchTree, SingleEntryTree) {
  const ScalarUniverse u{std::vector<double>{42.0}};
  DbchTree tree(u.PairDist());
  tree.Insert(0);
  const TreeStats stats = tree.ComputeStats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.height, 1u);
  double found = -1;
  tree.BestFirstSearch(u.QueryDist(40.0), [&](size_t id, double bound) {
    found = std::fabs(u.value(id) - 40.0);
    return std::min(bound, found);
  });
  EXPECT_DOUBLE_EQ(found, 2.0);
}

TEST(DbchTree, DuplicateEntriesAllRetained) {
  const ScalarUniverse u{std::vector<double>(25, 7.0)};
  DbchTree tree(u.PairDist());
  for (size_t i = 0; i < u.size(); ++i) tree.Insert(i);
  std::set<size_t> seen;
  tree.BestFirstSearch([](size_t) { return 0.0; },
                       [&](size_t id, double bound) {
                         seen.insert(id);
                         return bound;
                       });
  EXPECT_EQ(seen.size(), 25u);
}

// The tree's nodes, read back from DbchTree::Serialize's documented layout,
// for a reference traversal that does not share the tree's search code.
struct RefNode {
  bool leaf = true;
  size_t hull_a = 0, hull_b = 0;
  double volume = 0.0, radius_a = 0.0, radius_b = 0.0;
  std::vector<size_t> members;  // entry ids (leaf) or child node ids
};

std::vector<RefNode> ReadNodes(const DbchTree& tree, size_t* root) {
  const std::string bytes = tree.Serialize();
  binio::Reader r(bytes);
  r.ReadU32();  // magic
  r.ReadU64();  // entry count
  *root = static_cast<size_t>(r.ReadI64());
  std::vector<RefNode> nodes(r.ReadU64());
  for (RefNode& node : nodes) {
    node.leaf = r.ReadU32() == 1;
    node.hull_a = r.ReadU64();
    node.hull_b = r.ReadU64();
    node.volume = r.ReadF64();
    node.radius_a = r.ReadF64();
    node.radius_b = r.ReadF64();
    node.members.resize(r.ReadU32());
    for (size_t& m : node.members) m = r.ReadU64();
  }
  EXPECT_TRUE(r.ok() && r.remaining() == 0);
  return nodes;
}

// Naive best-first search: measures both hull endpoints of every child it
// expands, with the node distances documented in dbch_tree.h.
void ReferenceSearch(const std::vector<RefNode>& nodes, size_t root,
                     bool sound_bounds, const DbchTree::QueryDistFn& query_dist,
                     const DbchTree::VisitFn& visit) {
  using Item = std::pair<double, size_t>;
  struct Greater {
    bool operator()(const Item& x, const Item& y) const {
      return x.first > y.first;
    }
  };
  std::priority_queue<Item, std::vector<Item>, Greater> pq;
  pq.push({0.0, root});
  double bound = std::numeric_limits<double>::infinity();
  while (!pq.empty()) {
    const Item item = pq.top();
    pq.pop();
    if (item.first > bound) break;
    const RefNode& node = nodes[item.second];
    if (node.leaf) {
      for (const size_t id : node.members) bound = visit(id, bound);
      continue;
    }
    for (const size_t c : node.members) {
      const RefNode& child = nodes[c];
      const double du = query_dist(child.hull_a);
      const double dl = query_dist(child.hull_b);
      double d;
      if (sound_bounds) {
        d = std::max({0.0, du - child.radius_a, dl - child.radius_b});
      } else if (du < child.volume && dl < child.volume) {
        d = 0.0;
      } else {
        d = std::min(du, dl);
      }
      if (d <= bound) pq.push({d, c});
    }
  }
}

TEST(DbchTree, NodeBoundReuseKeepsTraversalAndSavesEndpointCalls) {
  const ScalarUniverse u = RandomUniverse(6, 400);
  for (const bool sound : {false, true}) {
    DbchTreeOptions options;
    options.sound_bounds = sound;
    DbchTree tree(u.PairDist(), options);
    for (size_t i = 0; i < u.size(); ++i) tree.Insert(i);
    ASSERT_GE(tree.ComputeStats().height, 3u);
    size_t root = 0;
    const std::vector<RefNode> nodes = ReadNodes(tree, &root);

    Rng rng(66);
    for (int trial = 0; trial < 25; ++trial) {
      const double q = rng.Uniform(-120.0, 120.0);
      // 3-NN visit that records the order it is offered entries in.
      const auto run = [&](const std::function<void(
                               const DbchTree::QueryDistFn&,
                               const DbchTree::VisitFn&)>& search,
                           size_t* calls) {
        std::vector<std::pair<size_t, double>> order;
        std::vector<double> best;
        search(
            [&](size_t id) {
              ++*calls;
              return std::fabs(u.value(id) - q);
            },
            [&](size_t id, double bound) {
              order.emplace_back(id, bound);
              best.push_back(std::fabs(u.value(id) - q));
              std::sort(best.begin(), best.end());
              if (best.size() > 3) best.pop_back();
              return best.size() < 3 ? bound : std::min(bound, best.back());
            });
        return std::make_pair(order, best);
      };
      size_t tree_calls = 0, ref_calls = 0;
      SearchCounters counters;
      const auto got = run(
          [&](const auto& qd, const auto& visit) {
            tree.BestFirstSearch(qd, visit, &counters);
          },
          &tree_calls);
      const auto want = run(
          [&](const auto& qd, const auto& visit) {
            ReferenceSearch(nodes, root, sound, qd, visit);
          },
          &ref_calls);
      EXPECT_EQ(got.first, want.first) << "sound=" << sound << " q=" << q;
      EXPECT_EQ(got.second, want.second) << "sound=" << sound << " q=" << q;
      EXPECT_EQ(counters.node_bound_evaluations, tree_calls);
      EXPECT_LT(tree_calls, ref_calls) << "sound=" << sound << " q=" << q;
    }
  }
}

class DbchScaleSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(DbchScaleSweep, StructureScalesWithEntries) {
  const size_t count = GetParam();
  const ScalarUniverse u = RandomUniverse(count, count);
  DbchTree tree(u.PairDist(), DbchTreeOptions{2, 5});
  for (size_t i = 0; i < u.size(); ++i) tree.Insert(i);
  const TreeStats stats = tree.ComputeStats();
  EXPECT_EQ(stats.entries, count);
  EXPECT_GE(stats.leaf_nodes, count / 5);
  const size_t bound =
      static_cast<size_t>(std::ceil(std::log2(static_cast<double>(count)))) +
      2;
  EXPECT_LE(stats.height, bound);
}

INSTANTIATE_TEST_SUITE_P(Sizes, DbchScaleSweep,
                         ::testing::Values(10, 50, 100, 500));

}  // namespace
}  // namespace sapla
