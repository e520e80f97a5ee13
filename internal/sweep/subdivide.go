package sweep

import (
	"time"

	"repro/internal/geom"
)

// Subdivision is the raw material for building a planar subdivision out of
// one exact sweep: per-input-segment split points plus the sweep-order
// below-predecessor of every event point.
type Subdivision struct {
	// Splits[i] holds the points at which input segment i must be split:
	// exact intersection points with other segments, collinear overlap
	// endpoints, and probe points lying on the segment.  Entries may repeat
	// and may include the segment's own endpoints; callers sort/deduplicate.
	Splits [][]geom.Point

	// Below maps the Key() of every event point the sweep processed — all
	// segment endpoints, every intersection point and every probe point — to
	// the index of the input segment whose supporting line passed strictly
	// below the point at the moment the sweep reached it (before the event
	// mutated the status), or -1 when the status held nothing below.
	//
	// This is the sweep order threaded into face tracing: the face directly
	// below an event point is the face above that predecessor, so hole cycles
	// and isolated vertices are located without any point-in-polygon
	// relocation.  Vertical segments never enter the status; callers resolve
	// vertical obstructions from the subdivision's own vertex set (which is
	// exactly the set of keys of this map).
	Below map[string]int

	// Pairs is the number of intersecting segment pairs found, which is also
	// the number of exact intersection computations performed.
	Pairs int
}

// Subdivide runs one exact Bentley–Ottmann sweep over the segments and probe
// points.  Every intersecting pair contributes split points to both segments,
// and every probe point is made an event point of the sweep, so a probe point
// lying on k segments costs one event instead of the O(n) scan a post-hoc
// containment test needs.  The candidate-pair stage is exact end to end — no
// float grid, no pad heuristic: a pair is reported iff the exact rational
// predicates say the segments meet, at any coordinate magnitude.
func Subdivide(segs []geom.Segment, probePts []geom.Point) *Subdivision {
	start := time.Now()
	res := &Subdivision{
		Splits: make([][]geom.Point, len(segs)),
		Below:  make(map[string]int),
	}
	sw := newSweeper(segs, func(p Pair) bool {
		switch p.X.Kind {
		case geom.PointIntersection:
			res.Splits[p.I] = append(res.Splits[p.I], p.X.P)
			res.Splits[p.J] = append(res.Splits[p.J], p.X.P)
		case geom.OverlapIntersection:
			res.Splits[p.I] = append(res.Splits[p.I], p.X.OverlapA, p.X.OverlapB)
			res.Splits[p.J] = append(res.Splits[p.J], p.X.OverlapA, p.X.OverlapB)
		}
		res.Pairs++
		return true
	})
	sw.belowOut = res.Below
	if len(probePts) > 0 {
		sw.probe = make(map[string]bool, len(probePts))
		for _, p := range probePts {
			sw.probe[p.Key()] = true
		}
		sw.onProbe = func(p geom.Point, hit []int) {
			for _, i := range hit {
				res.Splits[i] = append(res.Splits[i], p)
			}
		}
		sw.addEventPoints(probePts)
	}
	sw.run()
	sw.record(start)
	return res
}
