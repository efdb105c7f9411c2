// Package costmodel evaluates the closed-form communication and
// latency costs of Table 3 for the 2D, 2.5D, recursive and COSMA
// decompositions, in the general case and in the paper's two special
// cases (square matrices with limited memory, SquareLimited; tall
// matrices with extra memory, TallExtra).
//
// These formulas are the paper's analysis; the structural models in
// internal/core and internal/baselines are derived from the executable
// decompositions and are cross-checked against these forms in tests.
package costmodel
