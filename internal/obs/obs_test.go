package obs

import (
	"bytes"
	"go/parser"
	"go/token"
	"io/fs"
	"log/slog"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func TestNewLoggerRejectsUnknownFormat(t *testing.T) {
	if _, err := NewLogger(&bytes.Buffer{}, "yaml", slog.LevelInfo); err == nil {
		t.Fatal("expected an error for format yaml")
	}
}

func TestNewRunIDUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		id := NewRunID()
		if seen[id] {
			t.Fatalf("duplicate run ID %q", id)
		}
		seen[id] = true
	}
}

// TestParseLevel pins the -log-level vocabulary, including the empty
// default and the "warning" alias.
func TestParseLevel(t *testing.T) {
	for in, want := range map[string]slog.Level{
		"debug":   slog.LevelDebug,
		"":        slog.LevelInfo,
		"info":    slog.LevelInfo,
		"WARN":    slog.LevelWarn,
		"warning": slog.LevelWarn,
		"error":   slog.LevelError,
	} {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel must reject unknown levels")
	}
}

// TestLibrariesDoNotLog: no package under internal/ but this one
// imports log or log/slog. Degradations belong in the report and
// failures in returned errors; the daemon's one record per request is
// its wide event, written here.
func TestLibrariesDoNotLog(t *testing.T) {
	self, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	checked := 0
	err = filepath.WalkDir("..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		abs, err := filepath.Abs(filepath.Dir(path))
		if err != nil {
			return err
		}
		if abs == self {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		checked++
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return err
			}
			if p == "log" || p == "log/slog" {
				t.Errorf("%s imports %q: library code records degradations in reports, not logs", path, p)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("no Go files found under internal/")
	}
}
