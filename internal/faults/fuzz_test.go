package faults

import (
	"strings"
	"testing"

	"cais/internal/sim"
)

// overflowRepro parses and used to validate, but its repair time
// At+For = 18e18 ps wraps int64, and the injector then scheduled the
// repair at a negative instant.
const overflowRepro = `{"faults":[{"kind":"link-degrade","at_us":9e12,"for_us":9e12,"factor":0.5}]}`

func TestValidateRejectsOverflowingRepairTime(t *testing.T) {
	s, err := Parse([]byte(overflowRepro))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	err = s.Validate(8, 4)
	if err == nil {
		t.Fatal("Validate accepted a fault whose repair time overflows")
	}
	if !strings.Contains(err.Error(), "fault 0 (link-degrade") || !strings.Contains(err.Error(), "overflows") {
		t.Fatalf("error %q does not name the fault and the overflow", err)
	}
	// The latest repair time that fits is accepted.
	ok := &Schedule{Faults: []Fault{{Kind: Straggler, At: sim.MaxTime - 5, For: 5, Factor: 2}}}
	if err := ok.Validate(8, 4); err != nil {
		t.Fatalf("Validate rejected At+For == MaxTime: %v", err)
	}
}

// FuzzParse: for any input, Parse then Validate never panic, and every
// schedule they accept has times the injector can schedule.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		overflowRepro,
		`{"name":"x","faults":[{"kind":"link-down","at_us":10,"for_us":5,"plane":1,"gpu":-1,"dir":"up"}]}`,
		`{"faults":[{"kind":"plane-down","at_us":20,"plane":2},{"kind":"straggler","gpu":7,"factor":2}]}`,
		`{"faults":[{"kind":"merge-disable","at_us":1e300,"for_us":-1e300,"plane":-1,"gpu":-1}]}`,
		`{"faults":[{"kind":"link-degrade","at_us":-0,"factor":1e-3,"dir":"down"}]}`,
		`{"faults":null}`,
		`[]`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return
		}
		if s.Validate(8, 4) != nil {
			return
		}
		for i, fl := range s.Faults {
			if fl.At < 0 || fl.For < 0 || fl.For > sim.MaxTime-fl.At {
				t.Fatalf("accepted fault %d (%s) with At=%d For=%d", i, fl, int64(fl.At), int64(fl.For))
			}
		}
	})
}
