package profile

import "repro/internal/dp"

// AlignBanded is Align restricted to diagonals j−i ∈ [diagLo, diagHi]
// (clamped so the start and end cells are always reachable). The
// MAFFT-like aligner uses FFT-detected homologous offsets to choose the
// band, paying O(width·band) instead of O(width²).
func (al *Aligner) AlignBanded(a, b *Profile, diagLo, diagHi int) (Path, float64) {
	n, m := a.Len(), b.Len()
	if n == 0 || m == 0 {
		return al.alignTrivial(n, m)
	}
	// Clamp the band to contain both corners: (0,0) lies on diagonal 0
	// and (n,m) on diagonal m−n, so the band must span min(0,m−n) to
	// max(0,m−n) whatever the caller asked for.
	if diagLo > diagHi {
		diagLo, diagHi = diagHi, diagLo
	}
	if diagLo > 0 {
		diagLo = 0
	}
	if diagLo > m-n {
		diagLo = m - n
	}
	if diagHi < 0 {
		diagHi = 0
	}
	if diagHi < m-n {
		diagHi = m - n
	}

	w := dp.GetRaw()
	defer dp.Put(w)
	return al.alignRows(w, a, b, diagLo, diagHi)
}

func (al *Aligner) alignTrivial(n, m int) (Path, float64) {
	path := make(Path, 0, n+m)
	for i := 0; i < n; i++ {
		path = append(path, OpA)
	}
	for j := 0; j < m; j++ {
		path = append(path, OpB)
	}
	return path, 0
}
