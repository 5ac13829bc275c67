package lint_test

import (
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

// Each fixture package is type-checked as an import path inside the
// analyzer's real scope, so the scoping rules are exercised too.

func TestCtxFlow(t *testing.T) {
	linttest.Run(t, "ctxflow", "ctxflow", lint.ModulePath+"/internal/ctxfix")
}

func TestDeterminism(t *testing.T) {
	linttest.Run(t, "determinism", "determinism", lint.ModulePath+"/internal/kmer")
}

func TestDurErr(t *testing.T) {
	linttest.Run(t, "durerr", "durerr", lint.ModulePath+"/internal/store")
}

// Scoping: the same fixtures analyzed under out-of-scope import paths
// must produce nothing.
func TestScoping(t *testing.T) {
	cases := []struct{ analyzer, fixture, asPath string }{
		{"ctxflow", "ctxflow_clean", lint.ModulePath + "/cmd/samplealign"},
		{"determinism", "determinism_clean", lint.ModulePath + "/internal/serve"},
		{"durerr", "durerr_clean", lint.ModulePath + "/internal/kmer"},
	}
	for _, c := range cases {
		t.Run(c.analyzer, func(t *testing.T) {
			linttest.Run(t, c.analyzer, c.fixture, c.asPath)
		})
	}
}
