package workloads

import (
	"strings"
	"testing"

	"repro/internal/field"
)

func TestFromSpec(t *testing.T) {
	cases := []struct {
		spec    string
		kernels int
	}{
		{"mulsum", 4},
		{"kmeans", 4},
		{"kmeans:n=100,k=5,iter=3,seed=2,dim=3", 4},
		{"mjpeg:frames=2,w=32,h=32,quality=50,fast=1", 6},
		{"mjpeg", 6},
	}
	for _, c := range cases {
		p, err := FromSpec(c.spec)
		if err != nil {
			t.Errorf("%s: %v", c.spec, err)
			continue
		}
		if len(p.Kernels) != c.kernels {
			t.Errorf("%s: %d kernels, want %d", c.spec, len(p.Kernels), c.kernels)
		}
	}
}

func TestFromSpecErrors(t *testing.T) {
	for _, spec := range []string{
		"nope",
		"kmeans:n=abc",
		"kmeans:noequals",
		"mjpeg:frames=x",
	} {
		if _, err := FromSpec(spec); err == nil {
			t.Errorf("%s: expected error", spec)
		}
	}
	if _, err := FromSpec("nope"); err == nil || !strings.Contains(err.Error(), "unknown workload") {
		t.Error("unknown workload message")
	}
}

func TestSpecBounds(t *testing.T) {
	b := SpecBounds("kmeans:n=100,iter=7")
	if b["assign"] != 6 || b["refine"] != 6 || b["print"] != 7 {
		t.Errorf("bounds %v", b)
	}
	if SpecBounds("mulsum") != nil {
		t.Error("mulsum needs no bounds")
	}
	// Default iteration count when unspecified.
	if b := SpecBounds("kmeans"); b["print"] != 10 {
		t.Errorf("default bounds %v", b)
	}
}

// TestRegisterPayloadsIdempotent: RegisterPayloads may be called any number
// of times, and it has nothing to register: no field of a workload that runs
// across nodes holds Go objects.
func TestRegisterPayloadsIdempotent(t *testing.T) {
	RegisterPayloads()
	RegisterPayloads()
	for _, spec := range []string{"mulsum", "kmeans:n=20,k=2,iter=1", "mjpeg:frames=1,w=16,h=16"} {
		p, err := FromSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range p.Fields {
			if f.Kind == field.Any {
				t.Errorf("%s: field %s holds Go objects, which do not cross nodes", spec, f.Name)
			}
		}
	}
}
