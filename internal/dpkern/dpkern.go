// Package dpkern provides the scaled-integer affine-gap global DP
// kernel: query-profile scoring over int16 planes, which
// internal/pairwise runs wherever it is exact.
//
// The kernel is an exactness-preserving fast path, not an
// approximation. All shipped substitution matrices (BLOSUM62, DNA+5/−4)
// and gap models are half-integral, so every score the float64 kernel
// ever computes is an exact multiple of ½ with magnitude far below 2^52:
// float64 addition, subtraction and comparison on such values are exact,
// which means the whole scalar DP is secretly integer arithmetic at
// scale 2. A Table quantizes the matrix and gap model to int16 at that
// scale; when quantization is exact and the a-priori value bounds fit
// int16 (Fits), the integer kernel performs bit-for-bit the same
// comparisons and tie-breaks as the scalar kernel and therefore
// produces the identical traceback and score. Anything outside those
// bounds — fractional matrices, extreme lengths, adversarial gap models
// — makes For return nil or Fits return false, and the caller runs the
// float64 kernel, keeping output byte-identical by construction.
//
// The speed comes from three classic tricks: a query profile (one score
// row per residue class, so the inner loop is a single indexed load
// instead of two alphabet lookups plus a 2-D matrix access), 7-byte DP
// cells (three int16 planes plus the packed traceback byte, versus 25
// bytes for the float64 planes), and a two-pass row schedule in which
// the M/X pass has no loop-carried dependency and is unrolled four wide
// while the serial Y chain runs in a tight second pass.
package dpkern
