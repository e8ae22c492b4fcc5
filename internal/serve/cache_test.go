package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"bgpvr/internal/core"
	"bgpvr/internal/grid"
	"bgpvr/internal/obs"
	"bgpvr/internal/volume"
)

// TestSameKeyRaceKeepsOnePointer pins the miss race for both kinds of
// entry: two callers that both miss one key both build, and both get
// the one entry the cache keeps.
func TestSameKeyRaceKeepsOnePointer(t *testing.T) {
	r := obs.NewRegistry()
	c := newFieldCache(1<<20, r.NewCounterVec("hits", ""), r.NewCounterVec("misses", ""))
	dims := grid.Cube(8)
	key := core.FieldKey{TurbulenceKey: core.TurbulenceKey{
		Variable: volume.VarDensity, Dims: dims, Ext: grid.WholeGrid(dims), Seed: 1}, Time: 1}
	sn := volume.Supernova{Seed: 1, Time: 1}

	// race runs get twice at once, each build waiting until both have
	// missed, and returns what the two callers got.
	race := func(get func(wait func()) any) [2]any {
		var missed sync.WaitGroup
		missed.Add(2)
		wait := func() { missed.Done(); missed.Wait() }
		var got [2]any
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() { defer wg.Done(); got[i] = get(wait) }()
		}
		wg.Wait()
		return got
	}
	turbs := race(func(wait func()) any {
		return c.Turbulence(key.TurbulenceKey, func() *volume.Turbulence {
			wait()
			return sn.Turbulence(key.Variable, dims, key.Ext)
		})
	})
	fields := race(func(wait func()) any {
		return c.Get(key, func() *volume.Field {
			wait()
			return sn.Generate(key.Variable, dims, key.Ext)
		})
	})
	if turbs[0] != turbs[1] || fields[0] != fields[1] {
		t.Error("racing misses of one key got different pointers")
	}
	fs, ts := c.Stats()
	if fs != (cacheSize{1, 4 * 512}) || ts != (cacheSize{1, 8 * 512}) {
		t.Errorf("fields %+v, tables %+v: want one 2 KB field and one 4 KB table", fs, ts)
	}
	if c.misses.Value() != 2 || c.turbMisses.Value() != 2 {
		t.Errorf("%d field, %d table misses; want 2 each", c.misses.Value(), c.turbMisses.Value())
	}
}

// TestCacheEvictionMatchesColdFrames drives the field cache the way
// animation traffic does, with a budget too small for the working set:
// concurrent clients ask for interleaved times of two seeds, so block
// fields and turbulence tables evict each other and same-key misses
// race. Every image must still be the one a cold core.RunReal of the
// same scene renders, and once the service has shut down its
// goroutines must be gone.
func TestCacheEvictionMatchesColdFrames(t *testing.T) {
	baseline := runtime.NumGoroutine()

	// Set up: the cold reference image of each scene. At n 48 over 4
	// ranks a block is 26³ with its ghost: a 70 KB field and a 140 KB
	// table, so the two seeds' tables alone overrun 1 MB.
	const clients, rounds = 3, 2
	var bodies []string
	for _, seed := range []int64{0, 77} {
		for _, tm := range []float64{0.5, 1.1, 1.7} {
			bodies = append(bodies, fmt.Sprintf(
				`{"n": 48, "img": 40, "procs": 4, "seed": %d, "time": %g, "include_image": true}`, seed, tm))
		}
	}
	want := map[string][]byte{}
	for _, body := range bodies {
		_, spec, err := decodeRequest(strings.NewReader(body), 1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.RunReal(core.RealConfig{Scene: spec.scene, Procs: spec.procs, Algo: spec.algo})
		if err != nil {
			t.Fatal(err)
		}
		var ppm bytes.Buffer
		if err := res.Image.EncodePPM(&ppm, 0); err != nil {
			t.Fatal(err)
		}
		want[body] = ppm.Bytes()
	}

	s := testServer(t, Config{MaxConcurrent: clients, QueueDepth: clients, CacheMB: 1})
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Transport: &http.Transport{}}

	// Perturb: each client walks the scenes from its own offset.
	var wg sync.WaitGroup
	errs := make(chan error, clients*rounds*len(bodies))
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds*len(bodies); i++ {
				body := bodies[(c*2+i)%len(bodies)]
				if err := renderMatches(client, "http://"+s.Addr()+"/render", body, want[body]); err != nil {
					errs <- err
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := s.Status().Cache
	if st.FieldBytes+st.TurbulenceBytes > 1<<20 {
		t.Errorf("cache holds %d + %d bytes over a 1 MB budget", st.FieldBytes, st.TurbulenceBytes)
	}
	if st.TurbulenceMisses <= 2*4 || st.TurbulenceHits == 0 {
		t.Errorf("turbulence %d hits / %d misses: want tables both reused and evicted (> 8 builds for 2 seeds × 4 blocks)",
			st.TurbulenceHits, st.TurbulenceMisses)
	}

	// Wait for the goroutines to wind down, then assert none remain.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	client.CloseIdleConnections()
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); n > baseline && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(10 * time.Millisecond)
	}
	if n > baseline {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines after Shutdown, %d before the server:\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
	}
}

// renderMatches posts body and checks that the reply's image is want.
func renderMatches(client *http.Client, url, body string, want []byte) error {
	resp, err := client.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", body, resp.StatusCode, raw)
	}
	ppm, err := wireImage(raw)
	if err != nil {
		return err
	}
	if !bytes.Equal(ppm, want) {
		return fmt.Errorf("%s: image differs from a cold frame of the scene", body)
	}
	return nil
}
