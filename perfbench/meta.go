package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// meta identifies where and on what a result was measured.
type meta struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit"`
	// StealS is CPU time the host took from this machine's vCPUs during
	// the run (the steal column of /proc/stat); on a shared host it is
	// what most often makes one run slower than the next.
	StealS float64 `json:"steal_s"`
}

func collectMeta(root, workload string, seed int64, seconds int, trace bool) meta {
	return meta{
		Workload: workload, Seed: seed, Seconds: seconds, Trace: trace,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Commit:     commitOf(root),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// cpuTicks reads, from the first line of /proc/stat, the time all CPUs
// spent running (user, nice, system, irq, softirq) and the time the host
// stole from them while they had work, in USER_HZ ticks (1/100 s). Both
// are 0 where /proc/stat is missing.
func cpuTicks() (busy, steal int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	var v [8]int64
	for i := range v {
		v[i], _ = strconv.ParseInt(f[i+1], 10, 64)
	}
	return v[0] + v[1] + v[2] + v[5] + v[6], v[7]
}

// stealMark is a point to measure host CPU steal from.
type stealMark struct{ busy, steal int64 }

func markSteal() stealMark {
	busy, steal := cpuTicks()
	return stealMark{busy, steal}
}

// stolen is the CPU time, in seconds, the host took since the mark.
func (m stealMark) stolen() float64 {
	_, steal := cpuTicks()
	return float64(steal-m.steal) / 100
}

// share is the part of the time this machine's CPUs had work since the
// mark that the host let them run: busy / (busy + steal). An op that ran
// for wall time W while the host took the rest would have taken W·share
// on a host that took nothing.
func (m stealMark) share() float64 {
	busy, steal := cpuTicks()
	b, s := float64(busy-m.busy), float64(steal-m.steal)
	if b+s <= 0 {
		return 1
	}
	return math.Max(b/(b+s), 0.05)
}

// commitOf names the code under test: the git commit when root is a
// work tree, otherwise a hash of every Go source and module file, so a
// checkout without history still identifies its contents.
func commitOf(root string) string {
	if c := gitHead(root); c != "" {
		return c
	}
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && filepath.Base(path) != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		rel, _ := filepath.Rel(root, path)
		io.WriteString(h, rel+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return "tree-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// gitHead resolves .git/HEAD without running git.
func gitHead(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return ""
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return ""
}
