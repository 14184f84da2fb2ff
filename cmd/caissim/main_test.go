package main

import (
	"errors"
	"flag"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMainProcess runs main with the arguments after "--" when the test
// binary re-executes itself (see runCLI); a plain test run has no "--" and
// skips it.
func TestMainProcess(t *testing.T) {
	for i, a := range os.Args {
		if a == "--" {
			os.Args = append([]string{os.Args[0]}, os.Args[i+1:]...)
			flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ExitOnError)
			main()
			os.Exit(0)
		}
	}
	t.Skip("re-executed by runCLI only")
}

// runCLI runs caissim with args in a child process and returns its exit
// status and standard error.
func runCLI(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-test.run=^TestMainProcess$", "--"}, args...)...)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stderr.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), stderr.String()
	}
	t.Fatalf("running caissim %v: %v", args, err)
	return 0, ""
}

// TestServingFlagsRejectBadValues: only 0 selects a serving default. A
// negative, NaN or infinite -arrival-rate or -slo is bad usage naming the
// flag, and a rate too low for simulated time is an error, not a run.
func TestServingFlagsRejectBadValues(t *testing.T) {
	cases := []struct {
		flag, value string
		code        int
		want        string
	}{
		{"-slo", "NaN", 2, "-slo"},
		{"-slo", "-1", 2, "-slo"},
		{"-slo", "+Inf", 2, "-slo"},
		{"-arrival-rate", "-5", 2, "-arrival-rate"},
		{"-arrival-rate", "NaN", 2, "-arrival-rate"},
		{"-arrival-rate", "-Inf", 2, "-arrival-rate"},
		{"-arrival-rate", "1e-300", 1, "arrival rate 1e-300"},
	}
	for _, tc := range cases {
		code, stderr := runCLI(t, "-experiment", "serving", "-quick", tc.flag, tc.value)
		if code != tc.code || !strings.Contains(stderr, tc.want) || strings.Contains(stderr, "panic") {
			t.Errorf("%s %s: exit %d, stderr %q; want exit %d mentioning %q", tc.flag, tc.value, code, stderr, tc.code, tc.want)
		}
	}
}

func TestLayersBelowOneIsUsageError(t *testing.T) {
	for _, layers := range []string{"0", "-3"} {
		code, stderr := runCLI(t, "-strategy", "CAIS", "-layers", layers)
		if code != 2 || !strings.Contains(stderr, "-layers") || strings.Contains(stderr, "panic") {
			t.Errorf("-layers %s: exit %d, stderr %q; want exit 2 naming -layers", layers, code, stderr)
		}
	}
}
