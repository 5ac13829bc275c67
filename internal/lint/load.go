package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// LoadedPackage is one type-checked module package ready for Run.
type LoadedPackage struct {
	PkgPath string
	Fset    *token.FileSet
	Files   []*ast.File
	Pkg     *types.Package
	Info    *types.Info
}

// listedPackage is the subset of `go list -json` the loader consumes.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	DepOnly    bool
	Module     *struct{ Path string }
	Error      *struct{ Err string }
}

// LoadModule lists the packages matching patterns in the module rooted
// at dir (with `go list -deps -export`, so every dependency arrives as
// compiled export data) and type-checks the module's own packages from
// source. It is how cmd/samplealignlint sees the module.
func LoadModule(dir string, patterns []string) ([]*LoadedPackage, error) {
	args := append([]string{"list", "-e", "-deps", "-export", "-json=ImportPath,Dir,GoFiles,Export,Standard,DepOnly,Module,Error"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}
	var pkgs []*listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		pkgs = append(pkgs, &p)
	}
	exports := map[string]string{}
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	fset := token.NewFileSet()
	imp := ExportImporter(fset, exports)
	var loaded []*LoadedPackage
	for _, p := range pkgs {
		if p.DepOnly || p.Standard {
			continue
		}
		if p.Module == nil || p.Module.Path != ModulePath {
			continue
		}
		if p.Error != nil {
			return nil, fmt.Errorf("%s: %s", p.ImportPath, p.Error.Err)
		}
		lp, err := typeCheck(fset, imp, p.ImportPath, p.Dir, p.GoFiles)
		if err != nil {
			return nil, err
		}
		loaded = append(loaded, lp)
	}
	return loaded, nil
}

// ExportImporter returns a types.Importer resolving imports through
// compiled gc export data files (as produced by `go list -export`).
func ExportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})
}

// typeCheck parses and type-checks one package from source.
func typeCheck(fset *token.FileSet, imp types.Importer, pkgPath, dir string, goFiles []string) (*LoadedPackage, error) {
	var files []*ast.File
	for _, name := range goFiles {
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(dir, name)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %v", path, err)
		}
		files = append(files, f)
	}
	info := NewInfo()
	conf := types.Config{
		Importer: imp,
		Error:    func(error) {}, // collect best-effort; first hard error returned below
	}
	pkg, err := conf.Check(pkgPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", pkgPath, err)
	}
	return &LoadedPackage{PkgPath: pkgPath, Fset: fset, Files: files, Pkg: pkg, Info: info}, nil
}
