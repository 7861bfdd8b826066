// Process (unitary-level) distance metrics.
//
// These compare circuits as linear maps, independent of any input state.
// The synthesis tools' cost function is the normalized Hilbert–Schmidt
// distance, global-phase invariant: two circuits at distance ~0 are
// functionally indistinguishable.
#pragma once

#include "linalg/matrix.hpp"

namespace qc::metrics {

/// |Tr(U† V)| / d  in [0, 1]; 1 iff U = e^{i phi} V.
double hs_fidelity(const linalg::Matrix& u, const linalg::Matrix& v);

/// sqrt(1 - hs_fidelity^2)  in [0, 1] — the QSearch/QFast cost function and
/// the paper's "HS distance" (threshold 0.1; synthesis stops below 1e-10).
double hs_distance(const linalg::Matrix& u, const linalg::Matrix& v);

/// Average gate fidelity  F̄ = (|Tr(U†V)|² + d) / (d² + d).
double average_gate_fidelity(const linalg::Matrix& u, const linalg::Matrix& v);

}  // namespace qc::metrics
