package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/caesar-sketch/caesar"
	"github.com/caesar-sketch/caesar/internal/trace"
)

// TestServeSmoke is the end-to-end service drill `make serve-smoke` runs in
// CI: build the real binary, boot it on a trace replay with checkpointing
// enabled, hit every endpoint, kill the process without warning (SIGKILL —
// no graceful path), restart it from the checkpoint, and require the sealed
// epochs to answer bit-identically to what the first process served. This
// is the crash-safety contract of docs/SERVICE.md exercised at process
// granularity rather than in-process.
func TestServeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("process-level smoke test; skipped in -short")
	}
	dir := t.TempDir()
	bin := buildServe(t, dir)

	// A small deterministic trace; its flow IDs seed the candidate set.
	tr, err := trace.Generate(trace.GenConfig{Flows: 500, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	tracePath := filepath.Join(dir, "trace.ctr1")
	tf, err := os.Create(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Write(tf); err != nil {
		t.Fatal(err)
	}
	if err := tf.Close(); err != nil {
		t.Fatal(err)
	}
	flows := trace.SortedFlowIDs(tr.Truth)
	probe := flows[:10]

	snap := filepath.Join(dir, "state.csnp")
	args := []string{
		"-listen", "127.0.0.1:0",
		"-trace", tracePath, "-replay-loop",
		"-snapshot", snap,
		"-epochs", "3", "-shards", "2",
		"-counters", "16384", "-cache-entries", "1024", "-cache-cap", "32",
		"-seed", "7",
	}

	// ---- First life: ingest, rotate, query, then die hard. ----
	cmd, base := startServe(t, bin, args)
	// Two rotations so /changes has a pair of sealed epochs to compare and
	// the checkpoint on disk covers both.
	postSmoke(t, base, "/rotate")
	time.Sleep(50 * time.Millisecond) // let the replay feed the next epoch
	postSmoke(t, base, "/rotate")

	// Touch every read endpoint while the replay keeps ingesting.
	var hz healthzResponse
	getSmoke(t, base, "/healthz", &hz)
	if hz.Health != "healthy" || hz.EpochsSealed != 2 || hz.NumPackets == 0 {
		t.Fatalf("healthz = %+v", hz)
	}
	var st statsResponse
	getSmoke(t, base, "/stats", &st)
	if st.Packets == 0 || st.Candidates != len(flows) {
		t.Fatalf("stats = %+v (want %d candidates)", st, len(flows))
	}
	var dr dropsResponse
	getSmoke(t, base, "/drops", &dr)
	if got := dr.DroppedOverflow + dr.DroppedSampled + dr.DroppedQuarantine +
		dr.DroppedTimeout + dr.DroppedAfterClose + dr.DroppedInjected; got != dr.DroppedPackets {
		t.Fatalf("drop ledger causes sum to %d, DroppedPackets says %d (%+v)", got, dr.DroppedPackets, dr)
	}
	var eps []epochResponse
	getSmoke(t, base, "/epochs", &eps)
	if len(eps) != 2 {
		t.Fatalf("epochs = %+v, want 2 sealed", eps)
	}
	var top []topKResponse
	getSmoke(t, base, "/topk?k=5", &top)
	if len(top) != 5 {
		t.Fatalf("topk returned %d rows", len(top))
	}
	var alerts []alertResponse
	getSmoke(t, base, "/alerts?threshold=1", &alerts)
	var changes []changeResponse
	getSmoke(t, base, "/changes?min=0.5", &changes)

	// Force a checkpoint at a known point, then record what the sealed
	// window answers for the probe flows.
	postSmoke(t, base, "/snapshot")
	before := estimates(t, base, probe)
	beforeHz := hz
	getSmoke(t, base, "/healthz", &beforeHz)

	// SIGKILL: no signal handler, no final seal — the crash the snapshot
	// layer exists for.
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = cmd.Wait()

	// ---- Second life: restore from the checkpoint. ----
	cmd2, base2 := startServe(t, bin, args)
	defer func() {
		_ = cmd2.Process.Signal(syscall.SIGTERM)
		_ = cmd2.Wait()
	}()
	var hz2 healthzResponse
	getSmoke(t, base2, "/healthz", &hz2)
	if hz2.EpochsSealed != beforeHz.EpochsSealed || hz2.Rotations != beforeHz.Rotations {
		t.Fatalf("restored shape (%d sealed, %d rotations) != checkpointed (%d, %d)",
			hz2.EpochsSealed, hz2.Rotations, beforeHz.EpochsSealed, beforeHz.Rotations)
	}
	after := estimates(t, base2, probe)
	for i, f := range probe {
		if before[i] != after[i] {
			t.Fatalf("flow %d: estimate %v before the crash, %v after restore (must be bit-identical)",
				f, before[i], after[i])
		}
	}
	// The restored ledger must keep its invariant: packets + drops from the
	// checkpoint, all causes summing exactly.
	var dr2 dropsResponse
	getSmoke(t, base2, "/drops", &dr2)
	if got := dr2.DroppedOverflow + dr2.DroppedSampled + dr2.DroppedQuarantine +
		dr2.DroppedTimeout + dr2.DroppedAfterClose + dr2.DroppedInjected; got != dr2.DroppedPackets {
		t.Fatalf("restored drop ledger causes sum to %d, DroppedPackets says %d", got, dr2.DroppedPackets)
	}
	if hz2.NumPackets != beforeHz.NumPackets {
		t.Fatalf("restored NumPackets %d != checkpointed %d", hz2.NumPackets, beforeHz.NumPackets)
	}
	// And the service keeps measuring: the replay is live again, rotation
	// still works.
	postSmoke(t, base2, "/rotate")
	var hz3 healthzResponse
	getSmoke(t, base2, "/healthz", &hz3)
	if hz3.Rotations != hz2.Rotations+1 {
		t.Fatalf("post-restore rotation went %d -> %d", hz2.Rotations, hz3.Rotations)
	}
}

// TestServeSmokeSIGTERMAfterListen sends SIGTERM the moment the daemon
// announces its listen address. The signal handler must already be in
// place by then, so every attempt takes the graceful path — drain, seal,
// checkpoint, exit 0 — instead of the signal's default action, which kills
// the process with no checkpoint.
func TestServeSmokeSIGTERMAfterListen(t *testing.T) {
	if testing.Short() {
		t.Skip("process-level smoke test; skipped in -short")
	}
	dir := t.TempDir()
	bin := buildServe(t, dir)
	for attempt := 0; attempt < 10; attempt++ {
		snap := filepath.Join(dir, fmt.Sprintf("state%d.csnp", attempt))
		cmd := exec.Command(bin, "-listen", "127.0.0.1:0", "-snapshot", snap,
			"-epochs", "2", "-shards", "1", "-counters", "4096", "-cache-entries", "256")
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		line, err := bufio.NewReader(stdout).ReadString('\n')
		if err != nil || !strings.Contains(line, "listening on ") {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
			t.Fatalf("attempt %d: no listen line (%q, %v)\n%s", attempt, line, err, stderr.String())
		}
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		if err := cmd.Wait(); err != nil {
			t.Fatalf("attempt %d: SIGTERM right after the listen line: %v (want exit status 0)\n%s",
				attempt, err, stderr.String())
		}
		if _, err := os.Stat(snap); err != nil {
			t.Fatalf("attempt %d: no checkpoint after a graceful SIGTERM: %v\n%s", attempt, err, stderr.String())
		}
	}
}

// buildServe compiles the daemon into dir and returns the binary's path.
func buildServe(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "caesar-serve")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// startServe boots the binary and parses the listen line off stdout.
func startServe(t *testing.T, bin string, args []string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stdout)
	lineCh := make(chan string, 1)
	go func() {
		for sc.Scan() {
			if strings.Contains(sc.Text(), "listening on ") {
				lineCh <- sc.Text()
				break
			}
		}
		close(lineCh)
		// Drain so the child never blocks on a full stdout pipe.
		for sc.Scan() {
		}
	}()
	select {
	case line, ok := <-lineCh:
		if !ok {
			_ = cmd.Process.Kill()
			t.Fatal("caesar-serve exited before announcing its listen address")
		}
		base := line[strings.Index(line, "http://"):]
		waitHealthy(t, base)
		return cmd, base
	case <-time.After(10 * time.Second):
		_ = cmd.Process.Kill()
		t.Fatal("caesar-serve did not announce a listen address in time")
	}
	panic("unreachable")
}

func waitHealthy(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("service at %s never became healthy: %v", base, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func getSmoke(t *testing.T, base, path string, v any) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: decode: %v", path, err)
	}
}

func postSmoke(t *testing.T, base, path string) {
	t.Helper()
	resp, err := http.Post(base+path, "application/json", bytes.NewReader(nil))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d", path, resp.StatusCode)
	}
}

// estimates fetches the probe flows' sealed-window estimates in one call.
func estimates(t *testing.T, base string, probe []caesar.FlowID) []float64 {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("/estimate?")
	for i, f := range probe {
		if i > 0 {
			sb.WriteByte('&')
		}
		fmt.Fprintf(&sb, "flow=%d", uint64(f))
	}
	var rows []estimateResponse
	getSmoke(t, base, sb.String(), &rows)
	out := make([]float64, len(rows))
	for i, r := range rows {
		out[i] = r.Estimate
	}
	return out
}
