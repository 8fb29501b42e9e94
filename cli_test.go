package hopi

// Tests that shell out to the go tool, skipped under -short: the
// command-line pipeline hopigen → hopibuild → hopiquery/hopistats end
// to end and hopibench's paper tables, exercising the same binaries a
// user would run, and a vet of the nested benchmark module.

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func buildTool(t *testing.T, dir, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	cmd.Dir = "."
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("build %s: %v\n%s", name, err, out)
	}
	return bin
}

func runTool(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return string(out)
}

func TestCLIPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles binaries")
	}
	dir := t.TempDir()
	hopigen := buildTool(t, dir, "hopigen")
	hopibuild := buildTool(t, dir, "hopibuild")
	hopiquery := buildTool(t, dir, "hopiquery")
	hopistats := buildTool(t, dir, "hopistats")

	corpus := filepath.Join(dir, "corpus")
	out := runTool(t, hopigen, "-synthetic", "dblp", "-docs", "40", "-out", corpus)
	if !strings.Contains(out, "wrote 40 XML files") {
		t.Fatalf("hopigen output: %s", out)
	}
	entries, err := os.ReadDir(corpus)
	if err != nil || len(entries) != 40 {
		t.Fatalf("corpus dir: %v (%d files)", err, len(entries))
	}

	index := filepath.Join(dir, "corpus.hopi")
	out = runTool(t, hopibuild, "-in", corpus, "-out", index, "-distance", "-partitioner", "nodes", "-cap", "200")
	if !strings.Contains(out, "label entries") || !strings.Contains(out, "saved") {
		t.Fatalf("hopibuild output: %s", out)
	}

	out = runTool(t, hopiquery, "-index", index, "-expr", "//article//author", "-limit", "3")
	if !strings.Contains(out, "<author>") {
		t.Fatalf("hopiquery expr output: %s", out)
	}
	out = runTool(t, hopiquery, "-index", index, "-expr", "//article//cite", "-ranked", "-limit", "3")
	if !strings.Contains(out, "0.") {
		t.Fatalf("hopiquery ranked output: %s", out)
	}
	out = runTool(t, hopiquery, "-index", index, "-from", "pub00000.xml", "-to", "pub00001.xml")
	if !strings.Contains(out, "true") && !strings.Contains(out, "false") {
		t.Fatalf("hopiquery reach output: %s", out)
	}
	out = runTool(t, hopiquery, "-index", index, "-descendants", "pub00039.xml", "-limit", "5")
	if !strings.Contains(out, "pub00039.xml") {
		t.Fatalf("hopiquery descendants output: %s", out)
	}

	out = runTool(t, hopistats, "-in", corpus, "-closure=false")
	if !strings.Contains(out, "# docs:     40") {
		t.Fatalf("hopistats output: %s", out)
	}

	hopibench := buildTool(t, dir, "hopibench")
	out = runTool(t, hopibench, "-exp", "table1,table2,maintenance", "-docs", "60", "-seed", "7")
	for _, want := range []string{
		"=== Table 1: collection features ===", "DBLP (synthetic, 1/104)  60 ",
		"=== Table 2: index build time and size ===", "\nbaseline ", "\nN100 ",
		"=== §7.3: index maintenance ===", "separating documents (INEX):  100%",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("hopibench output lacks %q:\n%s", want, out)
		}
	}
	// an unknown experiment must fail and name the valid ones, not run
	// nothing and exit 0
	bad, err := exec.Command(hopibench, "-exp", "load").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Errorf("hopibench -exp load: err = %v, want exit status 2", err)
	}
	if !strings.Contains(string(bad), "table1,centralized,table2,maintenance") {
		t.Errorf("hopibench -exp load does not name the valid experiments: %s", bad)
	}
}

// TestBenchmarkModuleVets type-checks the nested gate module
// (benchmark/, which imports hopi/internal/* and is invisible to the
// root module's ./...), so tier-1 fails when a deleted or changed
// symbol would break the benchmark the driver builds from source.
func TestBenchmarkModuleVets(t *testing.T) {
	goInBenchmark(t, "vet", "./...")
}

// TestBenchmarkModuleTests runs the nested module's own tests: its
// smoke test drives every workload, the traced maintain-segments one
// through a follower on hopi.FollowDir, so a change to the root
// module's behaviour that breaks a workload fails tier-1 too.
func TestBenchmarkModuleTests(t *testing.T) {
	goInBenchmark(t, "test", "./...")
}

// goInBenchmark runs a go command in benchmark/ with the flags
// benchmark/run.sh uses (-mod=mod, GOWORK=off); skipped in -short.
func goInBenchmark(t *testing.T, args ...string) {
	t.Helper()
	if testing.Short() {
		t.Skip("compiles the benchmark module")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go is not on PATH")
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = "benchmark"
	cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod", "GOWORK=off")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go %s in benchmark/: %v\n%s", strings.Join(args, " "), err, out)
	}
}
