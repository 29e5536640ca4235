package dlbooster

// cache_doc_test pins docs/CACHE.md to the code: the config knobs,
// unavailability causes, spill record constants, pacing figures, CLI
// flags and every cache_* metric a cache-enabled pipeline exports must
// appear in the handbook, so the cache cannot grow surface the
// handbook doesn't describe.

import (
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"dlbooster/internal/core"
	"dlbooster/internal/dataset"
	"dlbooster/internal/fpga"
	"dlbooster/internal/metrics"
	"dlbooster/internal/nvme"
	"dlbooster/internal/perf"
)

// cacheSnapshot runs one tiny cache-enabled epoch plus a replay — RAM
// tier sized to half the decoded set so the spill tier, demotions and
// both hit paths all exercise — and returns the snapshot.
func cacheSnapshot(t *testing.T) *metrics.PipelineSnapshot {
	t.Helper()
	const n, batch = 16, 4
	spec := dataset.MNISTLike(n)
	items := make([]core.Item, n)
	for i := range items {
		data, err := spec.JPEG(i)
		if err != nil {
			t.Fatal(err)
		}
		items[i] = core.Item{Ref: fpga.DataRef{Inline: data}, Meta: core.ItemMeta{Label: spec.Label(i), Seq: i}}
	}
	reg := metrics.NewRegistry()
	b, err := core.New(core.Config{
		BatchSize: batch, OutW: 28, OutH: 28, Channels: 1, PoolBatches: 3,
		Metrics: reg,
		Cache: core.CacheConfig{
			RAMBytes: int64(n * 28 * 28 / 2),
			Spill:    nvme.New(nvme.Config{}),
			Compress: true,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			batch, err := b.Batches().Pop()
			if err != nil {
				return
			}
			_ = b.RecycleBatch(batch)
		}
	}()
	if err := b.RunEpoch(core.CollectorFromItems(items)); err != nil {
		t.Fatal(err)
	}
	if err := b.ReplayCache(); err != nil {
		t.Fatal(err)
	}
	b.CloseBatches()
	<-done
	return reg.Snapshot()
}

func TestCacheHandbookPinned(t *testing.T) {
	docBytes, err := os.ReadFile("docs/CACHE.md")
	if err != nil {
		t.Fatalf("the cache handbook is missing: %v", err)
	}
	doc := string(docBytes)

	var wanted []string
	// Every CacheConfig knob, by field name.
	cfgType := reflect.TypeOf(core.CacheConfig{})
	for i := 0; i < cfgType.NumField(); i++ {
		wanted = append(wanted, "`"+cfgType.Field(i).Name+"`")
	}
	// The unavailability contract.
	wanted = append(wanted,
		"`ErrCacheUnavailable`", "`ErrCacheDisabled`", "`ErrCacheNeverFilled`",
		"`ErrCacheOverRAMLimit`", "`ErrCacheEvicted`",
	)
	// The spill record constants, with their actual values.
	wanted = append(wanted,
		fmt.Sprintf("`%q` (`SpillMagic`)", core.SpillMagic),
		fmt.Sprintf("`%d` (`SpillFormatVersion`)", core.SpillFormatVersion),
		fmt.Sprintf("`SpillHeaderSize` = %d", core.SpillHeaderSize),
	)
	// The pacing figures the sizing example is computed from.
	wanted = append(wanted,
		fmt.Sprintf("%.1f GB/s", perf.NVMeReadBandwidth/1e9),
		fmt.Sprintf("%.1f GB/s", perf.NVMeWriteBandwidth/1e9),
	)
	// The CLI surface.
	wanted = append(wanted,
		"-cache-mb", "-cache-spill-mb", "-cache-compress",
	)
	for _, w := range wanted {
		if !strings.Contains(doc, w) {
			t.Errorf("docs/CACHE.md does not mention %s", w)
		}
	}

	// Every cache metric a cache-enabled pipeline actually exports.
	snap := cacheSnapshot(t)
	var names []string
	for name := range snap.Counters {
		names = append(names, name)
	}
	for name := range snap.Gauges {
		names = append(names, name)
	}
	sawCacheMetric := false
	for _, name := range names {
		if !strings.HasPrefix(name, "cache_") {
			continue
		}
		sawCacheMetric = true
		if !strings.Contains(doc, "`"+name+"`") {
			t.Errorf("docs/CACHE.md does not document exported metric `%s`", name)
		}
	}
	if !sawCacheMetric {
		t.Fatal("the instrumented run exported no cache_* metrics; the pin is vacuous")
	}
}
