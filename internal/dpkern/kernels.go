package dpkern

import "repro/internal/dp"

// Global runs the int16 affine-gap global DP over row sets ra and rb
// (table row indices, see MapRows). It fills the workspace's int16
// planes and packed traceback exactly as the scalar kernel fills
// its own — same boundary bytes, same tie-breaks — and returns the end
// state plus the unscaled score. The caller must have checked
// Fits(len(ra), len(rb)) and reserved the workspace with ReserveInt.
//
// Row schedule: pass 1 computes M and X for a row, which read only the
// previous row and so unroll four wide with no carried dependency;
// pass 2 runs the serial Y recurrence and folds its predecessor choice
// into the traceback byte written by pass 1.
func (t *Table) Global(w *dp.Workspace, ra, rb []byte) (byte, float64) {
	n, m := len(ra), len(rb)
	cols := m + 1
	mi, xi, yi, tb := w.MI, w.XI, w.YI, w.TB
	openE, ext := t.openE, t.ext
	qp := t.queryProfile(w, rb)

	mi[0], xi[0], yi[0] = 0, neg, neg
	for i := 1; i <= n; i++ {
		idx := i * cols
		mi[idx], yi[idx] = neg, neg
		xi[idx] = gapRun(i, openE, ext)
		tb[idx] = dp.PackTB(dp.M, dp.X, dp.M)
	}
	for j := 1; j <= m; j++ {
		mi[j], xi[j] = neg, neg
		yi[j] = gapRun(j, openE, ext)
		tb[j] = dp.PackTB(dp.M, dp.M, dp.Y)
	}

	for i := 1; i <= n; i++ {
		row := i * cols
		pm := mi[row-cols : row]
		px := xi[row-cols : row]
		py := yi[row-cols : row]
		cm := mi[row : row+cols]
		cx := xi[row : row+cols]
		cy := yi[row : row+cols]
		tr := tb[row : row+cols]
		q := qp[int(ra[i-1])*m:]
		q = q[:m]

		j := 1
		for ; j+3 <= m; j += 4 {
			b0, s0 := dp.M, pm[j-1]
			if v := px[j-1]; v > s0 {
				b0, s0 = dp.X, v
			}
			if v := py[j-1]; v > s0 {
				b0, s0 = dp.Y, v
			}
			cm[j] = s0 + q[j-1]
			x0, f0 := pm[j]-openE, dp.M
			if v := px[j] - ext; x0 < v {
				x0, f0 = v, dp.X
			}
			cx[j] = x0
			tr[j] = b0 | f0<<2

			b1, s1 := dp.M, pm[j]
			if v := px[j]; v > s1 {
				b1, s1 = dp.X, v
			}
			if v := py[j]; v > s1 {
				b1, s1 = dp.Y, v
			}
			cm[j+1] = s1 + q[j]
			x1, f1 := pm[j+1]-openE, dp.M
			if v := px[j+1] - ext; x1 < v {
				x1, f1 = v, dp.X
			}
			cx[j+1] = x1
			tr[j+1] = b1 | f1<<2

			b2, s2 := dp.M, pm[j+1]
			if v := px[j+1]; v > s2 {
				b2, s2 = dp.X, v
			}
			if v := py[j+1]; v > s2 {
				b2, s2 = dp.Y, v
			}
			cm[j+2] = s2 + q[j+1]
			x2, f2 := pm[j+2]-openE, dp.M
			if v := px[j+2] - ext; x2 < v {
				x2, f2 = v, dp.X
			}
			cx[j+2] = x2
			tr[j+2] = b2 | f2<<2

			b3, s3 := dp.M, pm[j+2]
			if v := px[j+2]; v > s3 {
				b3, s3 = dp.X, v
			}
			if v := py[j+2]; v > s3 {
				b3, s3 = dp.Y, v
			}
			cm[j+3] = s3 + q[j+2]
			x3, f3 := pm[j+3]-openE, dp.M
			if v := px[j+3] - ext; x3 < v {
				x3, f3 = v, dp.X
			}
			cx[j+3] = x3
			tr[j+3] = b3 | f3<<2
		}
		for ; j <= m; j++ {
			bm, bs := dp.M, pm[j-1]
			if v := px[j-1]; v > bs {
				bm, bs = dp.X, v
			}
			if v := py[j-1]; v > bs {
				bm, bs = dp.Y, v
			}
			cm[j] = bs + q[j-1]
			vx, bx := pm[j]-openE, dp.M
			if v := px[j] - ext; vx < v {
				vx, bx = v, dp.X
			}
			cx[j] = vx
			tr[j] = bm | bx<<2
		}

		yprev := cy[0]
		for j := 1; j <= m; j++ {
			vy, by := cm[j-1]-openE, dp.M
			if v := yprev - ext; vy < v {
				vy, by = v, dp.Y
			}
			cy[j] = vy
			yprev = vy
			tr[j] |= by << 4
		}
	}

	return t.endState(w, n, m)
}

// gapRun is the boundary value of a leading gap of length i: −(open +
// i·ext) at scale. Computed in int to sidestep int16 conversion of i;
// Fits guarantees the result is in range whenever ext > 0, and the
// product vanishes when ext == 0.
func gapRun(i int, openE, ext int16) int16 {
	return int16(-(int(openE) + (i-1)*int(ext)))
}

// endState picks the final DP state with the scalar kernel's exact
// comparison order and returns it with the unscaled score.
func (t *Table) endState(w *dp.Workspace, n, m int) (byte, float64) {
	end := w.At(n, m)
	state, best := dp.M, w.MI[end]
	if v := w.XI[end]; v > best {
		state, best = dp.X, v
	}
	if v := w.YI[end]; v > best {
		state, best = dp.Y, v
	}
	return state, float64(best) / scale
}
