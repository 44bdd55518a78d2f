package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync"

	"trajsim/internal/gen"
	"trajsim/internal/traj"
	"trajsim/internal/trajio"
)

const (
	zeta = 40.0 // ζ in meters, the OPERB-A default every workload runs at
	// quantTol is the slack the error check allows beyond ζ: the store
	// keeps segment endpoints at the 1 cm quantum of the wire formats.
	quantTol = 0.01
	// basePoints is the length of each device's generated GeoLife track.
	// Longer streams repeat it, shifted in time (see device.point).
	basePoints = 16384
	batchPts   = 64 // points per device batch, as a phone uploads them
	batchDevs  = 8  // device batches per fleet request
)

// device is one simulated GPS device: a seeded GeoLife track, quantized
// to the 1 cm / 1 ms wire quantum so the points the benchmark checks are
// exactly the points the server decodes. The stream a device sends is
// the track repeated without end, each repetition shifted past the end
// of the previous one, so any number of points keeps strictly
// increasing timestamps.
type device struct {
	id     string
	base   []traj.Point
	period int64 // time shift between repetitions, ms
	sent   int   // stream points handed out so far
	// sessions are the stream ranges the server saw as separate encoder
	// sessions (a flush ends one), in order.
	sessions []pointRange
}

// pointRange is a half-open range [lo, hi) of stream point numbers.
type pointRange struct{ lo, hi int }

// point returns stream point n.
func (d *device) point(n int) traj.Point {
	p := d.base[n%len(d.base)]
	p.T += int64(n/len(d.base)) * d.period
	return p
}

// take returns the next k stream points and advances the cursor.
func (d *device) take(k int) []traj.Point {
	out := make([]traj.Point, k)
	for i := range out {
		out[i] = d.point(d.sent + i)
	}
	d.sent += k
	return out
}

// closeSession records that everything sent since the last session
// ended now forms one finalized encoder session (after a /flush).
func (d *device) closeSession() {
	lo := 0
	if n := len(d.sessions); n > 0 {
		lo = d.sessions[n-1].hi
	}
	if d.sent > lo {
		d.sessions = append(d.sessions, pointRange{lo, d.sent})
	}
}

// sessionAt returns the index of the session holding stream time t, or
// -1.
func (d *device) sessionAt(t int64) int {
	for i, s := range d.sessions {
		if t >= d.point(s.lo).T && t <= d.point(s.hi-1).T {
			return i
		}
	}
	return -1
}

// seedFor derives a per-device generator seed from the run seed.
func seedFor(seed uint64, salt string, i int) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range []byte(salt) {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return h ^ (seed * 0x9e3779b97f4a7c15) ^ (uint64(i) * 0xbf58476d1ce4e5b9)
}

// makeDevices generates n devices named prefix000… from seed, on two
// goroutines at most.
func makeDevices(seed uint64, prefix string, n int) []*device {
	devs := make([]*device, n)
	var wg sync.WaitGroup
	workers := 2
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				devs[i] = newDevice(fmt.Sprintf("%s%03d", prefix, i), seedFor(seed, prefix, i))
			}
		}(w)
	}
	wg.Wait()
	return devs
}

func newDevice(id string, seed uint64) *device {
	raw := gen.One(gen.GeoLife, basePoints, seed)
	// Round-trip through the wire format: the server decodes quantized
	// points, and the checks must compare against exactly those.
	body := trajio.AppendIngestBatch(trajio.AppendIngestHeader(nil), id, raw)
	d := &device{id: id}
	if err := trajio.DecodeIngest(body, func(_ string, pts []traj.Point) error {
		d.base = pts
		return nil
	}); err != nil {
		panic(err) // a bug: the encoder's own output must decode
	}
	d.period = d.base[len(d.base)-1].T - d.base[0].T + 60_000
	return d
}

// fleetRequest builds one TSB1 request of batchDevs device batches of k
// points each, taking devices round-robin from devs starting at first.
func fleetRequest(devs []*device, first, k int) []byte {
	body := trajio.AppendIngestHeader(nil)
	for j := 0; j < batchDevs; j++ {
		d := devs[(first+j)%len(devs)]
		body = trajio.AppendIngestBatch(body, d.id, d.take(k))
	}
	return body
}

// zipf draws ranks in [0, n) with P(k) ∝ 1/(k+1)^s.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) zipf {
	z := zipf{cdf: make([]float64, n)}
	var sum float64
	for k := 0; k < n; k++ {
		sum += 1 / math.Pow(float64(k+1), s)
		z.cdf[k] = sum
	}
	for k := range z.cdf {
		z.cdf[k] /= sum
	}
	return z
}

func (z zipf) draw(r *rand.Rand) int {
	u := r.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		m := (lo + hi) / 2
		if z.cdf[m] < u {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// newRand returns the run's seeded generator for one purpose.
func newRand(seed uint64, salt string) *rand.Rand {
	s := seedFor(seed, salt, 0)
	return rand.New(rand.NewPCG(s, s^0x94d049bb133111eb))
}
