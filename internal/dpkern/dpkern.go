// Package dpkern provides the scaled-integer image of a substitution
// matrix and gap model, on which internal/pairwise runs its affine-gap
// global DP in int64.
//
// The integer DP is the float64 DP computed exactly, not an
// approximation. All shipped substitution matrices (BLOSUM62, DNA+5/−4)
// and gap models are half-integral, so every score the float64 DP
// computes is an exact multiple of ½: the float64 DP is integer
// arithmetic at scale 2. A Table holds that scale-2 image, and on it
// int64 cannot overflow at any length a caller can build (table.go
// states the bound), so the DP body takes the same choice at every
// reachable cell and returns the same path and score. A matrix or gap
// model with no exact image — a fractional score, a negative gap cost —
// has no Table, and internal/pairwise refuses it.
//
// A Table also builds the query profile of a sequence (one score row per
// residue class, so the DP's inner loop is a single indexed load), and
// the package keeps the process-wide tally of integer DP calls.
package dpkern
