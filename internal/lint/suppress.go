package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// allowPrefix is the suppression directive. A finding on line L of a
// file is suppressed when line L, or line L-1 as a standalone comment,
// carries
//
//	//lint:allow <analyzer> <reason>
//
// for the finding's analyzer. The reason is mandatory and is the
// audit trail: a directive without one is itself reported, as is a
// directive naming an analyzer that does not exist.
const allowPrefix = "//lint:allow"

type allowDirective struct {
	analyzer string
	reason   string
	pos      token.Pos
	line     int
	file     string
}

// parseAllows collects every suppression directive in the files.
func parseAllows(fset *token.FileSet, files []*ast.File) []allowDirective {
	var out []allowDirective
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, allowPrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, allowPrefix)
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					continue // e.g. //lint:allowance — not ours
				}
				fields := strings.Fields(rest)
				d := allowDirective{
					pos:  c.Pos(),
					line: fset.Position(c.Pos()).Line,
					file: fset.Position(c.Pos()).Filename,
				}
				if len(fields) > 0 {
					d.analyzer = fields[0]
				}
				if len(fields) > 1 {
					d.reason = strings.Join(fields[1:], " ")
				}
				out = append(out, d)
			}
		}
	}
	return out
}

// applySuppressions drops diagnostics covered by a well-formed allow
// directive and reports malformed directives.
func applySuppressions(fset *token.FileSet, files []*ast.File, diags []Diagnostic) []Diagnostic {
	allows := parseAllows(fset, files)
	if len(allows) == 0 {
		return diags
	}
	// (file, line) -> analyzers allowed there. A directive covers its
	// own line and, when it is the sole content of its line (a comment
	// line above the code), the next line.
	type key struct {
		file string
		line int
	}
	covered := map[key]map[string]bool{}
	add := func(k key, analyzer string) {
		if covered[k] == nil {
			covered[k] = map[string]bool{}
		}
		covered[k][analyzer] = true
	}
	var out []Diagnostic
	for _, d := range allows {
		if d.analyzer == "" || byName(d.analyzer) == nil {
			out = append(out, Diagnostic{
				Pos:      d.pos,
				Analyzer: "lintdirective",
				Message:  "lint:allow directive must name one of the suite's analyzers",
			})
			continue
		}
		if d.reason == "" {
			out = append(out, Diagnostic{
				Pos:      d.pos,
				Analyzer: "lintdirective",
				Message:  "lint:allow " + d.analyzer + " needs a written reason — suppressions without a justification are findings themselves",
			})
			continue
		}
		add(key{d.file, d.line}, d.analyzer)
		add(key{d.file, d.line + 1}, d.analyzer)
	}
	for _, diag := range diags {
		p := fset.Position(diag.Pos)
		if covered[key{p.Filename, p.Line}][diag.Analyzer] {
			continue
		}
		out = append(out, diag)
	}
	return out
}
