package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	goruntime "runtime"
	"strings"
	"time"
)

// environment is printed with every result. Two results are comparable
// only when everything but the revision matches.
type environment struct {
	Rev        string `json:"rev"`
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	Scale      string `json:"scale"`
}

func currentEnv(scale string) environment {
	return environment{
		Rev:        gitRev(),
		Go:         goruntime.Version(),
		GOMAXPROCS: goruntime.GOMAXPROCS(0),
		NProc:      goruntime.NumCPU(),
		Scale:      scale,
	}
}

// gitRev returns the checkout's git revision, or "unknown" outside a git
// work tree. The search for a repository stops at the working
// directory, so an enclosing repository is never reported.
func gitRev() string {
	wd, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, "git", "rev-parse", "--short=12", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// savedOutput is what compareOutputs reads back from a saved run.
type savedOutput struct {
	env      environment
	workload string
	seed     string
	digest   string
}

func readOutput(path string) (savedOutput, error) {
	f, err := os.Open(path)
	if err != nil {
		return savedOutput{}, err
	}
	defer f.Close()
	var s savedOutput
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "env "):
			if err := json.Unmarshal([]byte(line[len("env "):]), &s.env); err != nil {
				return s, fmt.Errorf("%s: env line: %w", path, err)
			}
		case strings.HasPrefix(line, "workload "):
			fields := strings.Fields(line)
			if len(fields) >= 4 {
				s.workload, s.seed = fields[1], fields[3]
			}
		case strings.HasPrefix(line, "profile_digest "):
			s.digest = strings.TrimSpace(line[len("profile_digest "):])
		}
	}
	if err := sc.Err(); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	if s.env.Go == "" || s.workload == "" {
		return s, fmt.Errorf("%s: no env or workload line; not a perfbench output", path)
	}
	return s, nil
}

// compareOutputs flags two saved outputs that must not be compared
// (different environment, workload or, on a seeded workload, seed) and
// reports whether the deterministic profiles agree. It returns false
// when anything was flagged.
func compareOutputs(out io.Writer, pathA, pathB string) (bool, error) {
	a, err := readOutput(pathA)
	if err != nil {
		return false, err
	}
	b, err := readOutput(pathB)
	if err != nil {
		return false, err
	}
	var flags []string
	diff := func(what string, x, y any) {
		if x != y {
			flags = append(flags, fmt.Sprintf("%s %v vs %v", what, x, y))
		}
	}
	diff("go", a.env.Go, b.env.Go)
	diff("gomaxprocs", a.env.GOMAXPROCS, b.env.GOMAXPROCS)
	diff("nproc", a.env.NProc, b.env.NProc)
	diff("scale", a.env.Scale, b.env.Scale)
	diff("workload", a.workload, b.workload)
	if w, ok := findWorkload(a.workload); ok && w.seeded {
		diff("seed", a.seed, b.seed)
	}
	fmt.Fprintf(out, "revisions: %s vs %s\n", a.env.Rev, b.env.Rev)
	if len(flags) > 0 {
		fmt.Fprintf(out, "NOT COMPARABLE: %s\n", strings.Join(flags, "; "))
		return false, nil
	}
	fmt.Fprintln(out, "environment: comparable")
	if a.digest != b.digest {
		fmt.Fprintf(out, "profile_digest DIFFERS: %s vs %s (modelled results moved)\n", a.digest, b.digest)
		return false, nil
	}
	fmt.Fprintf(out, "profile_digest identical: %s\n", a.digest)
	return true, nil
}
