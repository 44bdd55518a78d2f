package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"

	"trajsim/internal/metrics"
	"trajsim/internal/traj"
	"trajsim/internal/trajio"
)

// quality is what a full replay of the store says about the served
// output: compression and deviation over every point sent.
type quality struct {
	points, segments int
	errSum           float64
}

// replayAll fetches every device's persisted log (SGB1, which carries
// the source index ranges the error check needs).
func (b *bench) replayAll(devs []*device) (map[string][]traj.Segment, error) {
	out := make(map[string][]traj.Segment, len(devs))
	for _, d := range devs {
		body, code, err := b.c1.get("/devices/" + url.PathEscape(d.id) + "/segments?out=sgb1")
		if err != nil {
			return nil, fmt.Errorf("replay %s: %w", d.id, err)
		}
		if code != http.StatusOK {
			return nil, fmt.Errorf("replay %s: HTTP %d", d.id, code)
		}
		segs, err := trajio.DecodeSegments(body)
		if err != nil {
			return nil, fmt.Errorf("replay %s: %w", d.id, err)
		}
		out[d.id] = segs
	}
	return out, nil
}

// splitSessions cuts a device's replayed log into encoder sessions: each
// session's first segment starts at source index 0.
func splitSessions(segs []traj.Segment) [][]traj.Segment {
	var out [][]traj.Segment
	for i, s := range segs {
		if i == 0 || s.StartIdx == 0 {
			out = append(out, nil)
		}
		out[len(out)-1] = append(out[len(out)-1], s)
	}
	return out
}

// checkReplay verifies every device's replayed log against the points
// sent: one session per flushed stream range, every source index
// covered, and every point within ζ (plus the 1 cm storage quantum) of a
// covering segment's line. It returns the quality totals.
func (b *bench) checkReplay(devs []*device, replay map[string][]traj.Segment) quality {
	var q quality
	for _, d := range devs {
		sess := splitSessions(replay[d.id])
		if len(sess) != len(d.sessions) {
			b.violate("%s: %d encoder sessions replayed, %d sent", d.id, len(sess), len(d.sessions))
			continue
		}
		for k, sp := range d.sessions {
			pw := traj.Piecewise(sess[k])
			t := make(traj.Trajectory, sp.hi-sp.lo)
			for i := range t {
				t[i] = d.point(sp.lo + i)
			}
			if reach := coveredPrefix(pw); reach != len(t) {
				b.violate("%s session %d: segments cover source indices [0,%d), %d points sent", d.id, k, reach, len(t))
				continue
			}
			bad := 0
			for i := range t {
				e := metrics.PointError(t, pw, i)
				if e > zeta+quantTol {
					bad++
				}
				q.errSum += e
			}
			if bad > 0 {
				b.violate("%s session %d: %d points farther than ζ+1cm from every covering segment", d.id, k, bad)
			}
			q.points += len(t)
			q.segments += len(pw)
		}
	}
	return q
}

// coveredPrefix returns n such that the segments' source ranges cover
// indices [0, n) without a hole (0 if they do not start at 0).
func coveredPrefix(pw traj.Piecewise) int {
	reach := 0
	for _, s := range pw {
		if s.StartIdx > reach {
			break
		}
		reach = max(reach, s.EndIdx+1)
	}
	return reach
}

// segmentRecord is one NDJSON record of a /segments or /at reply.
type segmentRecord struct {
	T1 int64   `json:"t1_ms"`
	X1 float64 `json:"x1_m"`
	Y1 float64 `json:"y1_m"`
	T2 int64   `json:"t2_ms"`
	X2 float64 `json:"x2_m"`
	Y2 float64 `json:"y2_m"`
}

func (r segmentRecord) is(s traj.Segment) bool {
	return r.T1 == s.Start.T && r.X1 == s.Start.X && r.Y1 == s.Start.Y &&
		r.T2 == s.End.T && r.X2 == s.End.X && r.Y2 == s.End.Y
}

// overlapping returns the segments of log whose time span meets
// [from, to], in log order — what a ranged /segments must return.
func overlapping(log []traj.Segment, from, to int64) []traj.Segment {
	var out []traj.Segment
	for _, s := range log {
		if s.Start.T <= to && s.End.T >= from {
			out = append(out, s)
		}
	}
	return out
}

// checkQueries verifies the replies of range and /at ops against the
// final replayed logs. With complete set, a range reply must be exactly
// the overlapping segments (the store was static while queried) and must
// cover each sent point of its window within ζ; otherwise (queries
// raced ingest) it must be a prefix of them. An /at reply's segment must
// be in the device's log and contain t.
func (b *bench) checkQueries(ops []*op, replay map[string][]traj.Segment, complete bool) {
	bad, edge, edgeReplies, gaps := 0, 0, 0, 0
	for _, o := range ops {
		if o.kind == opAt && o.err == nil && o.status == http.StatusNotFound {
			// A 404 is right only where the log has no segment spanning t;
			// t is a sample time, so its point must then be an absorbed one.
			if absorbedAt(o, replay[o.dev.id]) {
				gaps++
			} else {
				b.failed++
				b.violate("at %s: 404 for a persisted time", o.path)
			}
			continue
		}
		if o.kind == opIngest || o.failed() {
			continue
		}
		log := replay[o.dev.id]
		var err error
		if o.kind == opAt {
			err = checkAt(o, log)
		} else {
			var n int
			n, err = checkRange(o, log, complete)
			edge += n
			if n > 0 {
				edgeReplies++
			}
		}
		if err != nil {
			if bad < 5 {
				b.violate("%s %s: %v", o.kind, o.path, err)
			}
			bad++
		}
	}
	if bad > 5 {
		b.violate("%d more query replies failed their check", bad-5)
	}
	if edge > 0 {
		b.note("range replies: %d of them leave out %d window points' representing segment (absorbed points; /segments selects by time span)", edgeReplies, edge)
	}
	if gaps > 0 {
		b.note("at replies: %d sample times answered 404: their points are absorbed past the representing segment's end time", gaps)
	}
	b.m["segstore.absorbed_misses"] += float64(edge + gaps)
}

// absorbedAt reports whether the 404 an /at op got is consistent with
// the device's log: no segment's time span holds t, yet a segment of
// t's session covers its point by source index.
func absorbedAt(o *op, log []traj.Segment) bool {
	for _, s := range log {
		if s.Start.T <= o.t && o.t <= s.End.T {
			return false
		}
	}
	k := o.dev.sessionAt(o.t)
	if k < 0 {
		return false
	}
	sp := o.dev.sessions[k]
	t0, t1 := o.dev.point(sp.lo).T, o.dev.point(sp.hi-1).T
	inSession := func(s traj.Segment) bool { return s.Start.T >= t0 && s.Start.T <= t1 }
	return nearest(log, inSession, o.n0-sp.lo, o.dev.point(o.n0)) <= zeta+quantTol
}

func checkAt(o *op, log []traj.Segment) error {
	var reply struct {
		Segment segmentRecord `json:"segment"`
	}
	if err := json.Unmarshal(o.resp, &reply); err != nil {
		return err
	}
	r := reply.Segment
	if o.t < r.T1 || o.t > r.T2 {
		return fmt.Errorf("segment [%d,%d] does not contain t", r.T1, r.T2)
	}
	for _, s := range log {
		if r.is(s) {
			return nil
		}
	}
	return fmt.Errorf("segment [%d,%d] is not in the device's log", r.T1, r.T2)
}

// checkRange checks one /segments reply. It returns how many window
// points are represented within ζ only by a segment outside the reply:
// absorbed points extend a segment's source range past its end time, so
// a window starting among them overlaps the next segment's time span but
// not the representing one's, and /segments selects by time span.
func checkRange(o *op, log []traj.Segment, complete bool) (int, error) {
	want := overlapping(log, o.from, o.to)
	dec := json.NewDecoder(bytes.NewReader(o.resp))
	var got []traj.Segment
	for {
		var r segmentRecord
		if err := dec.Decode(&r); err == io.EOF {
			break
		} else if err != nil {
			return 0, err
		}
		if len(got) == len(want) || !r.is(want[len(got)]) {
			return 0, fmt.Errorf("record %d is not the log's next segment in the window", len(got))
		}
		got = append(got, want[len(got)])
	}
	if !complete {
		return 0, nil
	}
	if len(got) != len(want) {
		return 0, fmt.Errorf("%d segments returned, the log has %d in the window", len(got), len(want))
	}
	// Every point sent inside the window, stream points [n0, n1], lies
	// within ζ of a returned segment of its session covering it.
	k := o.dev.sessionAt(o.dev.point(o.n0).T)
	if k < 0 {
		return 0, fmt.Errorf("window start is in no session")
	}
	sp := o.dev.sessions[k]
	t0, t1 := o.dev.point(sp.lo).T, o.dev.point(sp.hi-1).T
	inSession := func(s traj.Segment) bool { return s.Start.T >= t0 && s.Start.T <= t1 }
	edge := 0
	for n := o.n0; n <= o.n1; n++ {
		p, i := o.dev.point(n), n-sp.lo
		if nearest(got, inSession, i, p) <= zeta+quantTol {
			continue
		}
		if nearest(log, inSession, i, p) <= zeta+quantTol {
			edge++
			continue
		}
		return edge, fmt.Errorf("point at t=%d: no covering segment within ζ", p.T)
	}
	return edge, nil
}

// nearest returns the least line distance from p to the segments of segs
// that pass keep and cover source index i (+Inf if none does).
func nearest(segs []traj.Segment, keep func(traj.Segment) bool, i int, p traj.Point) float64 {
	best := math.Inf(1)
	for _, s := range segs {
		if keep(s) && s.Covers(i) {
			best = math.Min(best, s.LineDistance(p))
		}
	}
	return best
}
