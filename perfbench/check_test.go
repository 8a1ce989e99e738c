package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"nustencil"
	"nustencil/server"
)

// smallSolve runs p on a fresh nuCORALS solver from the seeded field and
// returns the initial and final states.
func smallSolve(t *testing.T, p problem, seed int64) (init, got []float64) {
	t.Helper()
	field := seededField(seed, len(p.dims))
	sol, err := nustencil.NewSolver(nustencil.Config{Dims: p.dims, Order: p.order, Timesteps: p.steps, Scheme: nustencil.NuCORALS, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	sol.SetInitial(field)
	if _, err := sol.Execute(context.Background(), nustencil.RunSpec{Timesteps: p.steps}); err != nil {
		t.Fatal(err)
	}
	return fill(p.dims, field), sol.Export(nil)
}

func TestChecksPassOnCorrectOutput(t *testing.T) {
	for _, p := range []problem{
		{dims: []int{20, 22, 24}, order: 1, steps: 5},
		{dims: []int{40, 36}, order: 2, steps: 7},
	} {
		init, got := smallSolve(t, p, 3)
		lo, hi := valueRange(init)
		ref := referenceJacobi(p, init)
		if err := checkAgainstReference(got, ref, 2); err != nil {
			t.Errorf("%v: %v", p.dims, err)
		}
		if err := checkMaxPrinciple(got, lo, hi); err != nil {
			t.Errorf("%v: %v", p.dims, err)
		}
		h := stateHash(got)
		if err := checkSameState([]namedHash{{"a", h}, {"b", stateHash(append([]float64(nil), got...))}}); err != nil {
			t.Errorf("%v: %v", p.dims, err)
		}
	}
}

func TestChecksCatchPerturbedCell(t *testing.T) {
	p := problem{dims: []int{20, 22, 24}, order: 1, steps: 5}
	init, got := smallSolve(t, p, 4)
	lo, hi := valueRange(init)
	ref := referenceJacobi(p, init)
	bad := append([]float64(nil), got...)
	bad[len(bad)/2] += 1e-6
	if err := checkAgainstReference(bad, ref, 2); err == nil {
		t.Error("reference check passed a perturbed cell")
	}
	if err := checkSameState([]namedHash{{"good", stateHash(got)}, {"bad", stateHash(bad)}}); err == nil {
		t.Error("agreement check passed a perturbed cell")
	}
	bad[len(bad)/2] = hi + 1e-3
	if err := checkMaxPrinciple(bad, lo, hi); err == nil {
		t.Error("maximum-principle check passed a value above the initial range")
	}
}

func TestChecksRejectEmptyInput(t *testing.T) {
	if err := checkAgainstReference(nil, nil, 1); err == nil {
		t.Error("reference check passed an empty state")
	}
	if err := checkMaxPrinciple(nil, 0, 1); err == nil {
		t.Error("maximum-principle check passed an empty state")
	}
	if err := checkSameState(nil); err == nil {
		t.Error("agreement check passed no runs")
	}
	if err := checkSameState([]namedHash{{"one", 1}}); err == nil {
		t.Error("agreement check passed a single run")
	}
	if err := checkUpdates("empty", 0, problem{dims: []int{2, 2}, order: 1, steps: 3}); err == nil {
		t.Error("update check passed a problem without updates")
	}
}

func TestChecksCatchWrongUpdateCount(t *testing.T) {
	p := problem{dims: []int{10, 12}, order: 2, steps: 3}
	if err := checkUpdates("ok", 6*8*3, p); err != nil {
		t.Fatal(err)
	}
	if err := checkUpdates("off by one", 6*8*3+1, p); err == nil {
		t.Error("update check passed a wrong count")
	}
}

// TestRoundSeconds checks that a round is timed from the previous round's
// last finish to its own, and that rounds missing a done job, or following
// one, are left out.
func TestRoundSeconds(t *testing.T) {
	kinds := len(mixKinds)
	t0 := time.Unix(0, 0)
	var res []jobResult
	// Draws 2..4*kinds-1: round 0 is partial, rounds 1-3 are whole, and
	// one job of round 3 failed.
	for i := 2; i < 4*kinds; i++ {
		j := jobResult{draw: i, state: string(server.Done), finished: t0.Add(time.Duration(i) * time.Second)}
		if i == 3*kinds+1 {
			j.state = string(server.Failed)
		}
		res = append(res, j)
	}
	got := roundSeconds(res)
	if len(got) != 1 || got[0] != float64(kinds) {
		t.Fatalf("roundSeconds = %v, want [%d]", got, kinds)
	}
}

func TestCheckJob(t *testing.T) {
	k := 0
	good := jobResult{kind: k, state: string(server.Done), report: &nustencil.Report{Scheme: mixKinds[k].cfg.Scheme, Updates: mixKinds[k].prob.updates()}}
	if err := checkJob(good); err != nil {
		t.Fatal(err)
	}
	undone := good
	undone.state = string(server.Failed)
	if err := checkJob(undone); err == nil {
		t.Error("job check passed a failed job")
	}
	noReport := good
	noReport.report = nil
	if err := checkJob(noReport); err == nil {
		t.Error("job check passed a job without a report")
	}
	wrong := good
	rep := *good.report
	rep.Updates--
	wrong.report = &rep
	if err := checkJob(wrong); err == nil {
		t.Error("job check passed a wrong update count")
	}
	scheme := good
	rep2 := *good.report
	rep2.Scheme = nustencil.CATS
	scheme.report = &rep2
	if err := checkJob(scheme); err == nil {
		t.Error("job check passed a wrong scheme")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3, ok := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if !ok || q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v %v, want 2.75 5.5 8.25", q1, q2, q3, ok)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q2, q3, _ = quartiles([]float64{1, 2})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles of two = %v %v %v, want 0.75 1.5 2.25", q1, q2, q3)
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one sample reported ok")
	}
}

func TestSelfTime(t *testing.T) {
	parent := spanRec{start: 0, end: 100}
	kids := []spanRec{{start: 10, end: 30}, {start: 20, end: 40}, {start: 90, end: 120}}
	if got := covered(parent, kids); got != 40 {
		t.Errorf("covered = %v, want 40", got)
	}
}

// TestDeclaredMatchesBenchmarkJSON keeps the metric lists the result line
// carries equal to the ones BENCHMARK.json declares.
func TestDeclaredMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var doc struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		return strings.Join(out, ",")
	}
	if got, want := names(doc.EndToEnd), strings.Join(endToEnd, ","); got != want {
		t.Errorf("end_to_end in BENCHMARK.json = %s, benchmark reports %s", got, want)
	}
	if got, want := names(doc.PerLayer), strings.Join(perLayer, ","); got != want {
		t.Errorf("per_layer in BENCHMARK.json = %s, benchmark reports %s", got, want)
	}
}

// TestInjectedFaultsFailTheRun builds the benchmark and shows that each
// planted fault makes a whole run exit non-zero with correct=false.
func TestInjectedFaultsFailTheRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark three times")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "perfbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	for _, tc := range []struct{ workload, inject string }{
		{"tiles-2d", "cell"},
		{"tiles-2d", "updates"},
		{"serve-mix", "updates"},
		{"serve-mix", "undone"},
	} {
		t.Run(tc.workload+"/"+tc.inject, func(t *testing.T) {
			cmd := exec.Command(bin, "-workload", tc.workload, "-seconds", "1", "-inject", tc.inject, "-out", dir)
			var stdout bytes.Buffer
			cmd.Stdout = &stdout
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() == 0 {
				t.Fatalf("run with -inject %s: err %v, want a non-zero exit", tc.inject, err)
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("result line: %v", err)
			}
			if res.Correct || res.Failed == 0 {
				t.Errorf("result %+v, want correct=false and failures", res)
			}
		})
	}
}
