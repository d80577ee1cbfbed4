package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
)

// commit is the source revision, set at link time by run.sh.
var commit = "unknown"

// hostRecord is printed with every run so figures can be compared only
// with figures from the same host and build.
type hostRecord struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Rounds     int     `json:"rounds"`
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Commit     string  `json:"commit"`
}

func printHost(p params) {
	h := hostRecord{
		Workload: p.workload, Seed: p.seed, Seconds: p.seconds, Rounds: p.rounds,
		CPU: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Commit: commit,
	}
	buf, err := json.Marshal(h)
	if err != nil {
		return
	}
	fmt.Printf("# host %s\n", buf)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
