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
	"strings"
)

// The standalone loader: `go list -deps -export -json` enumerates the
// target packages and produces compiled export data for every
// dependency, and the stdlib gc importer consumes that export data, so
// whole-module analysis needs no third-party loader and works offline.
// Target packages are re-parsed from source (types.Info in hand); test
// files are parsed syntax-only into ExtraFiles for the analyzers that
// read imports.

// listPackage is the subset of `go list -json` output the loader uses.
type listPackage struct {
	ImportPath   string
	Name         string
	Dir          string
	Export       string
	GoFiles      []string
	CgoFiles     []string
	TestGoFiles  []string
	XTestGoFiles []string
	Standard     bool
	DepOnly      bool
	Module       *struct{ Path string }
	Error        *struct{ Err string }
}

// goList runs the go command and decodes its JSON package stream.
func goList(dir string, args ...string) ([]*listPackage, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	var pkgs []*listPackage
	for {
		var p listPackage
		if derr := dec.Decode(&p); derr == io.EOF {
			break
		} else if derr != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", derr)
		}
		pkgs = append(pkgs, &p)
	}
	return pkgs, nil
}

// exportLookup resolves import paths to their compiled export data.
type exportLookup map[string]string

func (e exportLookup) open(path string) (io.ReadCloser, error) {
	f, ok := e[path]
	if !ok || f == "" {
		return nil, fmt.Errorf("lint: no export data for %q", path)
	}
	return os.Open(f)
}

// LoadPackages loads, parses, and type-checks the packages matched by
// patterns (relative to dir, "" = cwd), ready for Run. Dependencies are
// type-checked from export data; only the matched packages get syntax.
func LoadPackages(dir string, patterns ...string) ([]*Package, error) {
	args := append([]string{"-e", "-deps", "-export",
		"-json=ImportPath,Name,Dir,Export,GoFiles,CgoFiles,TestGoFiles,XTestGoFiles,Standard,DepOnly,Module,Error"},
		patterns...)
	listed, err := goList(dir, args...)
	if err != nil {
		return nil, err
	}
	exports := exportLookup{}
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", exports.open)
	var pkgs []*Package
	for _, p := range listed {
		if p.DepOnly || p.Standard || p.Name == "" {
			continue
		}
		if p.Error != nil {
			return nil, fmt.Errorf("lint: %s: %s", p.ImportPath, p.Error.Err)
		}
		pkg, err := typeCheckListed(fset, imp, p)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

func typeCheckListed(fset *token.FileSet, imp types.Importer, p *listPackage) (*Package, error) {
	var files []*ast.File
	for _, name := range append(append([]string{}, p.GoFiles...), p.CgoFiles...) {
		f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: parsing %s: %w", name, err)
		}
		files = append(files, f)
	}
	var extra []*ast.File
	for _, name := range append(append([]string{}, p.TestGoFiles...), p.XTestGoFiles...) {
		f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: parsing %s: %w", name, err)
		}
		extra = append(extra, f)
	}
	info := NewInfo()
	conf := types.Config{
		Importer: imp,
		Error:    func(error) {}, // collect what we can; first hard error below
	}
	tpkg, err := conf.Check(p.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", p.ImportPath, err)
	}
	return &Package{
		Path:       p.ImportPath,
		Fset:       fset,
		Files:      files,
		ExtraFiles: extra,
		Pkg:        tpkg,
		Info:       info,
	}, nil
}

// GoListExports resolves patterns (typically standard-library import
// paths) to compiled export data for them and all their dependencies:
// import path -> export file.
func GoListExports(patterns ...string) (map[string]string, error) {
	listed, err := goList("", append([]string{"-deps", "-export", "-json=ImportPath,Export"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	out := make(map[string]string, len(listed))
	for _, p := range listed {
		if p.Export != "" {
			out[p.ImportPath] = p.Export
		}
	}
	return out, nil
}
