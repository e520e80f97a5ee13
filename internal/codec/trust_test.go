package codec

import (
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/region"
	"repro/internal/workload"
)

// sweepRuns reads the process-wide count of plane-sweep passes.
func sweepRuns() uint64 {
	return obs.Default.Histogram("topoinv_sweep_run_seconds", "", obs.DefLatencyBuckets).Count()
}

// TestDecodeValidatesOnce pins the trust boundary: decoding an untrusted
// blob validates each region exactly once (in Instance.Set), so it runs as
// many sweep passes as one Instance.Validate of the same map.
func TestDecodeValidatesOnce(t *testing.T) {
	inst, err := workload.LandUse(workload.DefaultLandUse(1))
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeInstance(inst)
	if err != nil {
		t.Fatal(err)
	}
	before := sweepRuns()
	if err := inst.Validate(); err != nil {
		t.Fatal(err)
	}
	validate := sweepRuns() - before
	if validate == 0 {
		t.Fatal("Instance.Validate ran no sweep pass; the map is too small to pin anything")
	}
	before = sweepRuns()
	if _, err := DecodeInstance(data); err != nil {
		t.Fatal(err)
	}
	if decode := sweepRuns() - before; decode != validate {
		t.Errorf("DecodeInstance ran %d sweep passes, one Instance.Validate runs %d", decode, validate)
	}
}

// TestDecodeRejectsInvalidRegion checks that the single validation still
// rejects a well-formed blob whose region is geometrically invalid.
func TestDecodeRejectsInvalidRegion(t *testing.T) {
	bowtie := geom.MustPolygon(geom.Pt(0, 0), geom.Pt(4, 4), geom.Pt(4, 0), geom.Pt(0, 4))
	w := newWriter(KindInstance)
	w.uvarint(1)
	w.string("P")
	w.region(region.Region{Features: []region.Feature{region.AreaFeature(bowtie)}})
	_, err := DecodeInstance(w.bytes())
	if err == nil || !strings.Contains(err.Error(), `region "P" invalid`) {
		t.Fatalf("DecodeInstance(bowtie) = %v, want an invalid-region error", err)
	}
}
