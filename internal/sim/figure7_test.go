package sim

import (
	"errors"
	"strings"
	"testing"
)

// Recorded baseline failures must surface in the rendered table.
func TestFormatShowsBaselineErrors(t *testing.T) {
	p := Panel{
		Spec: PanelSpec{RhoPrime: 0.5, M: 25},
		Points: []Point{{
			KOverM: 1, K: 25,
			SimFCFSErr: errors.New("fcfs exploded"),
			SimLCFSErr: errors.New("lcfs exploded"),
		}},
	}
	out := p.Format()
	if !strings.Contains(out, "sim(fcfs) failed at K/M=1.00: fcfs exploded") {
		t.Errorf("FCFS error not rendered:\n%s", out)
	}
	if !strings.Contains(out, "sim(lcfs) failed at K/M=1.00: lcfs exploded") {
		t.Errorf("LCFS error not rendered:\n%s", out)
	}
}
