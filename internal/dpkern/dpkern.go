// Package dpkern provides the scaled-integer image of a substitution
// matrix and gap model, on which internal/pairwise runs its affine-gap
// global DP in int16 wherever that is exact.
//
// The int16 instantiation is an exactness-preserving fast path, not an
// approximation. All shipped substitution matrices (BLOSUM62, DNA+5/−4)
// and gap models are half-integral, so every score the float64 DP ever
// computes is an exact multiple of ½ with magnitude far below 2^52:
// float64 addition, subtraction and comparison on such values are exact,
// which means the whole float64 DP is secretly integer arithmetic at
// scale 2. A Table quantizes the matrix and gap model to int16 at that
// scale; when quantization is exact and the a-priori value bounds fit
// int16 (Fits), the same DP body run on int16 performs bit-for-bit the
// same comparisons and tie-breaks as on float64 and therefore produces
// the identical traceback and score. Anything outside those bounds —
// fractional matrices, extreme lengths, adversarial gap models — makes
// For return nil or Fits return false, and the caller runs the float64
// instantiation, keeping output byte-identical by construction.
//
// A Table also builds the query profile of a sequence (one score row per
// residue class, so the DP's inner loop is a single indexed load), and
// the package keeps the process-wide tally of which instantiation ran.
package dpkern
