package backends

import (
	"testing"
	"time"

	"dlbooster/internal/core"
	"dlbooster/internal/fpga"
	"dlbooster/internal/queue"
)

// TestCPUPartialFlushDeadline pins deadline-flushed dynamic batching on
// the CPU baseline: a partial batch fed from a still-open item queue
// must publish once the oldest item waits out core.Config.BatchTimeout.
func TestCPUPartialFlushDeadline(t *testing.T) {
	spec := fixtureSpec()
	b, err := NewCPU(core.Config{
		BatchSize: 4, OutW: fixOut, OutH: fixOut, Channels: 1,
		PoolBatches: 3, BatchTimeout: 20 * time.Millisecond,
	}, CPUConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	q := queue.New[core.Item](8)
	epochDone := make(chan error, 1)
	go func() { epochDone <- b.RunEpoch(core.CollectorFromQueue(q)) }()
	for i := 0; i < 3; i++ {
		data, err := spec.JPEG(i)
		if err != nil {
			t.Fatal(err)
		}
		if err := q.Push(core.Item{Ref: fpga.DataRef{Inline: data}, Meta: core.ItemMeta{Seq: i, ReceivedAt: time.Now()}}); err != nil {
			t.Fatal(err)
		}
	}

	got := make(chan *core.Batch, 1)
	go func() { batch, _ := b.Batches().Pop(); got <- batch }()
	select {
	case batch := <-got:
		if batch == nil {
			t.Fatal("full queue closed before the partial batch arrived")
		}
		if batch.Images != 3 {
			t.Fatalf("batch images = %d, want 3", batch.Images)
		}
		if err := b.RecycleBatch(batch); err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("deadline flush never published — the CPU baseline still stalls on partial batches")
	}
	if got := b.PartialFlushes(); got != 1 {
		t.Fatalf("PartialFlushes = %d, want 1", got)
	}

	q.Close()
	if err := <-epochDone; err != nil {
		t.Fatal(err)
	}
	if b.Images() != 3 {
		t.Fatalf("Images = %d, want 3", b.Images())
	}
}

// TestCPUBatchTimeoutValidation rejects negative deadlines.
func TestCPUBatchTimeoutValidation(t *testing.T) {
	_, err := NewCPU(core.Config{BatchSize: 1, OutW: 8, OutH: 8, Channels: 1, BatchTimeout: -time.Second}, CPUConfig{Workers: 1})
	if err == nil {
		t.Fatal("negative batch timeout accepted")
	}
}
