#include "noise/topology.hpp"

#include <algorithm>
#include <deque>
#include <set>

#include "common/error.hpp"

namespace qc::noise {

CouplingMap::CouplingMap(int num_qubits, std::vector<std::pair<int, int>> edges)
    : num_qubits_(num_qubits) {
  QC_CHECK(num_qubits > 0);
  adjacency_.resize(static_cast<std::size_t>(num_qubits));
  std::set<std::pair<int, int>> seen;
  for (auto [a, b] : edges) {
    QC_CHECK(a >= 0 && a < num_qubits && b >= 0 && b < num_qubits && a != b);
    if (a > b) std::swap(a, b);
    if (!seen.insert({a, b}).second) continue;
    edges_.emplace_back(a, b);
    adjacency_[a].push_back(b);
    adjacency_[b].push_back(a);
  }
  for (auto& adj : adjacency_) std::sort(adj.begin(), adj.end());
  std::sort(edges_.begin(), edges_.end());
  const std::size_t n = static_cast<std::size_t>(num_qubits);
  auto dist = std::make_shared<std::vector<int>>(n * n, -1);
  for (std::size_t src = 0; src < n; ++src) {
    int* row = dist->data() + src * n;
    std::deque<int> queue{static_cast<int>(src)};
    row[src] = 0;
    while (!queue.empty()) {
      const int u = queue.front();
      queue.pop_front();
      for (int v : adjacency_[u]) {
        if (row[v] < 0) {
          row[v] = row[u] + 1;
          queue.push_back(v);
        }
      }
    }
  }
  dist_ = std::move(dist);
}

bool CouplingMap::are_coupled(int a, int b) const {
  if (a < 0 || b < 0 || a >= num_qubits_ || b >= num_qubits_ || a == b) return false;
  const auto& adj = adjacency_[a];
  return std::binary_search(adj.begin(), adj.end(), b);
}

const std::vector<int>& CouplingMap::neighbors(int q) const {
  QC_CHECK(q >= 0 && q < num_qubits_);
  return adjacency_[q];
}

int CouplingMap::distance(int a, int b) const {
  QC_CHECK(a >= 0 && a < num_qubits_ && b >= 0 && b < num_qubits_);
  return (*dist_)[static_cast<std::size_t>(a) * num_qubits_ + b];
}

bool CouplingMap::is_connected() const {
  for (int q = 0; q < num_qubits_; ++q)
    if ((*dist_)[q] < 0) return false;
  return true;
}

std::size_t CouplingMap::edge_index(int a, int b) const {
  if (a > b) std::swap(a, b);
  const auto it = std::lower_bound(edges_.begin(), edges_.end(), std::make_pair(a, b));
  QC_CHECK_MSG(it != edges_.end() && *it == std::make_pair(a, b), "qubits not coupled");
  return static_cast<std::size_t>(it - edges_.begin());
}

std::vector<std::vector<int>> CouplingMap::connected_subsets(int k) const {
  QC_CHECK_MSG(k >= 1 && k <= 6, "connected_subsets supports k in [1, 6]");
  // Grow connected sets from each seed qubit, one neighbour per level. Sets
  // are kept sorted, and each level is sorted and deduplicated, so the result
  // comes out in lexicographic order.
  std::vector<std::vector<int>> frontier;
  for (int q = 0; q < num_qubits_; ++q) frontier.push_back({q});
  for (int size = 1; size < k; ++size) {
    std::vector<std::vector<int>> next;
    for (const auto& s : frontier) {
      for (int q : s) {
        for (int nb : adjacency_[q]) {
          if (std::find(s.begin(), s.end(), nb) != s.end()) continue;
          std::vector<int>& grown = next.emplace_back(s);
          grown.insert(std::upper_bound(grown.begin(), grown.end(), nb), nb);
        }
      }
    }
    std::sort(next.begin(), next.end());
    next.erase(std::unique(next.begin(), next.end()), next.end());
    frontier = std::move(next);
  }
  return frontier;
}

CouplingMap CouplingMap::line(int num_qubits) {
  std::vector<std::pair<int, int>> edges;
  for (int q = 0; q + 1 < num_qubits; ++q) edges.emplace_back(q, q + 1);
  return CouplingMap(num_qubits, std::move(edges));
}

CouplingMap CouplingMap::ring(int num_qubits) {
  QC_CHECK(num_qubits >= 3);
  std::vector<std::pair<int, int>> edges;
  for (int q = 0; q < num_qubits; ++q) edges.emplace_back(q, (q + 1) % num_qubits);
  return CouplingMap(num_qubits, std::move(edges));
}

CouplingMap CouplingMap::ourense_t() {
  return CouplingMap(5, {{0, 1}, {1, 2}, {1, 3}, {3, 4}});
}

CouplingMap CouplingMap::falcon_27() {
  // IBM Falcon r4 27-qubit heavy-hex (ibmq_toronto family).
  return CouplingMap(27, {{0, 1},   {1, 2},   {1, 4},   {2, 3},   {3, 5},   {4, 7},
                          {5, 8},   {6, 7},   {7, 10},  {8, 9},   {8, 11},  {10, 12},
                          {11, 14}, {12, 13}, {12, 15}, {13, 14}, {14, 16}, {15, 18},
                          {16, 19}, {17, 18}, {18, 21}, {19, 20}, {19, 22}, {21, 23},
                          {22, 25}, {23, 24}, {24, 25}, {25, 26}});
}

CouplingMap CouplingMap::hummingbird_65() {
  // 65-qubit heavy-hex in the ibmq_manhattan style: five 10-qubit rows
  // (row 0: q0..q9, row 1: q14..q23, ...) joined by 15 bridge qubits placed
  // at alternating columns, giving the sparse degree-<=3 lattice the paper's
  // Manhattan experiments ran on.
  std::vector<std::pair<int, int>> edges;
  const int rows = 5;
  const int cols = 10;
  // Row qubits occupy ids row*10..row*10+9 renumbered after bridges; build with
  // explicit id table: rows get blocks of 10 starting at offsets computed as
  // we interleave bridge blocks between rows.
  std::vector<std::vector<int>> row_ids(rows);
  int next_id = 0;
  // 15 bridges; adjacent gaps use disjoint column sets so every row qubit
  // touches at most one bridge (max degree 3, as on the real lattice).
  const std::vector<std::vector<int>> bridge_cols = {
      {0, 3, 6, 9}, {1, 4, 5, 7}, {0, 3, 6, 9}, {2, 5, 8}};
  std::vector<std::vector<int>> bridge_ids(static_cast<std::size_t>(rows - 1));

  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) row_ids[r].push_back(next_id++);
    if (r < rows - 1) {
      for (std::size_t b = 0; b < bridge_cols[r].size(); ++b)
        bridge_ids[r].push_back(next_id++);
    }
  }
  QC_CHECK(next_id == 65);

  for (int r = 0; r < rows; ++r)
    for (int c = 0; c + 1 < cols; ++c)
      edges.emplace_back(row_ids[r][c], row_ids[r][c + 1]);
  for (int r = 0; r + 1 < rows; ++r) {
    for (std::size_t b = 0; b < bridge_cols[r].size(); ++b) {
      const int col = bridge_cols[r][b];
      edges.emplace_back(row_ids[r][col], bridge_ids[r][b]);
      edges.emplace_back(bridge_ids[r][b], row_ids[r + 1][col]);
    }
  }
  return CouplingMap(65, std::move(edges));
}

}  // namespace qc::noise
