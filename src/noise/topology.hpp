// Device qubit-connectivity graphs (coupling maps).
//
// CNOTs are only physical on coupled pairs; the router inserts SWAPs for
// everything else, and the noise model attaches per-edge CX errors. The
// catalog instantiates the real IBM layouts the paper ran on: 5-qubit line
// (rome/santiago), 5-qubit T (ourense), 27-qubit Falcon heavy-hex (toronto)
// and a 65-qubit Hummingbird-style heavy-hex (manhattan).
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace qc::noise {

class CouplingMap {
 public:
  /// Empty placeholder map (0 qubits); only assignment is meaningful on it.
  CouplingMap() = default;
  CouplingMap(int num_qubits, std::vector<std::pair<int, int>> edges);

  int num_qubits() const { return num_qubits_; }
  /// Undirected edge list, each stored with first < second.
  const std::vector<std::pair<int, int>>& edges() const { return edges_; }
  std::size_t num_edges() const { return edges_.size(); }

  bool are_coupled(int a, int b) const;
  const std::vector<int>& neighbors(int q) const;

  /// Hop distance between qubits, read from the all-pairs BFS table the
  /// constructor builds. Returns -1 if disconnected.
  int distance(int a, int b) const;
  bool is_connected() const;
  /// The whole table, row-major n x n: distance(a, b) is entry a * n + b.
  /// Copies of a map share one table.
  const std::vector<int>& distance_table() const { return *dist_; }

  /// Edge index of (a, b) in edges(); throws if not coupled.
  std::size_t edge_index(int a, int b) const;

  /// All connected sub-sets of exactly `k` qubits (k <= 6; used to enumerate
  /// candidate mappings on 5-qubit devices and mapping studies on larger ones).
  std::vector<std::vector<int>> connected_subsets(int k) const;

  // Named layout factories.
  static CouplingMap line(int num_qubits);
  static CouplingMap ring(int num_qubits);
  static CouplingMap ourense_t();           // 5q: 0-1, 1-2, 1-3, 3-4
  static CouplingMap falcon_27();           // ibmq_toronto layout
  static CouplingMap hummingbird_65();      // ibmq_manhattan-style heavy-hex

 private:
  int num_qubits_ = 0;
  std::vector<std::pair<int, int>> edges_;
  std::vector<std::vector<int>> adjacency_;
  // Row-major n x n hop distances, immutable once built and shared by every
  // copy of the map, so copies cost no BFS and concurrent readers no race.
  std::shared_ptr<const std::vector<int>> dist_;
};

}  // namespace qc::noise
