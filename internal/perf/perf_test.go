package perf

import (
	"math"
	"testing"
)

func TestCPUDecodeAnchor(t *testing.T) {
	// The reference image must decode at exactly the paper's 300 img/s.
	s := CPUDecodeSeconds(ReferenceImagePixels)
	if math.Abs(1/s-CPUDecodeRateILSVRC) > 1e-6 {
		t.Fatalf("reference decode rate = %.2f, want %.0f", 1/s, CPUDecodeRateILSVRC)
	}
	// Smaller images decode faster but never below the base cost.
	if CPUDecodeSeconds(28*28) <= CPUDecodeBaseSeconds {
		t.Fatal("MNIST decode below base cost")
	}
	if CPUDecodeSeconds(28*28) >= s {
		t.Fatal("MNIST decode not faster than ILSVRC")
	}
}

func TestCPUThreadEfficiency(t *testing.T) {
	if CPUThreadEfficiency(1) != 1 {
		t.Fatal("single thread must be 100% efficient")
	}
	if e := CPUThreadEfficiency(12); e < 0.80 || e > 0.85 {
		t.Fatalf("12-thread efficiency = %.3f, want ~0.82", e)
	}
	for n := 2; n < 32; n++ {
		if CPUThreadEfficiency(n) >= CPUThreadEfficiency(n-1) {
			t.Fatalf("efficiency not monotone at %d", n)
		}
	}
	// 12 cores must suffice for AlexNet's demand; 7 for ResNet-18's
	// (Figure 6 anchors).
	alex := 12 * CPUDecodeRateILSVRC * CPUThreadEfficiency(12)
	if alex < AlexNet.IdealRate {
		t.Fatalf("12 cores deliver %.0f < AlexNet ideal %.0f", alex, AlexNet.IdealRate)
	}
	res := 7 * CPUDecodeRateILSVRC * CPUThreadEfficiency(7)
	if res < ResNet18.IdealRate {
		t.Fatalf("7 cores deliver %.0f < ResNet-18 ideal %.0f", res, ResNet18.IdealRate)
	}
}

func TestDefaultThreadsReproduce25Percent(t *testing.T) {
	// §2.2: default config achieves only ~25% of AlexNet GPU demand.
	rate := DefaultCPUDecodeThreads * CPUDecodeRateILSVRC * CPUThreadEfficiency(DefaultCPUDecodeThreads)
	frac := rate / AlexNet.IdealRate
	if frac < 0.20 || frac > 0.30 {
		t.Fatalf("default-config fraction = %.2f, want ~0.25", frac)
	}
}

func TestFPGADecodeRate(t *testing.T) {
	r := FPGADecodeRate()
	// Figure 7(a): DLBooster plateaus just under 6k images/s, below the
	// GPU's large-batch rate so the decoder is what binds at batch ≥ 16.
	if r < 5200 || r > 6200 {
		t.Fatalf("FPGA decode rate = %.0f, want ~5600", r)
	}
	if r >= GoogLeNet.Rate(32) {
		t.Fatalf("FPGA rate %.0f must bind below GoogLeNet's batch-32 GPU rate %.0f", r, GoogLeNet.Rate(32))
	}
	// Huffman must be the bottleneck stage (the paper widened it to
	// 4-way precisely because it is the heavy stage).
	if FPGAHuffmanRatePerWay*FPGAHuffmanWays > FPGAIDCTRate ||
		FPGAHuffmanRatePerWay*FPGAHuffmanWays > FPGAResizeRatePerWay*FPGAResizeWays {
		t.Fatal("Huffman unit is not the pipeline bottleneck")
	}
	// FPGA must cover both training GPUs' AlexNet demand (Figure 5(b):
	// DLBooster approaches the ideal boundary at 2 GPUs).
	demand := 2 * AlexNet.IdealRate * MultiGPUSyncEfficiency(2)
	if r < demand {
		t.Fatalf("FPGA rate %.0f below 2-GPU AlexNet demand %.0f", r, demand)
	}
}

func TestMultiGPUSyncEfficiencyAnchor(t *testing.T) {
	// Figure 2 ideal: 2496 → 4652 from 1 → 2 GPUs.
	got := 2 * AlexNet.IdealRate * MultiGPUSyncEfficiency(2)
	if math.Abs(got-4652) > 60 {
		t.Fatalf("2-GPU ideal AlexNet = %.0f, want ≈4652", got)
	}
}

func TestInferProfileShapes(t *testing.T) {
	for _, p := range InferProfiles {
		// Rate is increasing in batch and saturates below MaxRate.
		prev := 0.0
		for _, b := range []int{1, 2, 4, 8, 16, 32, 64} {
			r := p.Rate(b)
			if r <= prev {
				t.Fatalf("%s: rate not increasing at batch %d", p.Name, b)
			}
			if r >= p.MaxRate {
				t.Fatalf("%s: rate %f exceeds max %f", p.Name, r, p.MaxRate)
			}
			prev = r
		}
		// BatchSeconds is affine: doubling batch < doubling time.
		if p.BatchSeconds(32) >= 2*p.BatchSeconds(16) {
			t.Fatalf("%s: batching gives no amortisation", p.Name)
		}
	}
}

func TestInferBatch1LatencyAnchor(t *testing.T) {
	// Figure 8: batch-1 GPU-side latency must leave room for ~1.2 ms
	// end-to-end with DLBooster (GoogLeNet).
	l := GoogLeNet.BatchSeconds(1)
	if l < 0.0004 || l > 0.0011 {
		t.Fatalf("GoogLeNet batch-1 inference = %.4f s, want 0.4–1.1 ms", l)
	}
}

func TestCopySeconds(t *testing.T) {
	batched := CopySeconds(512*28*28, 1)
	perItem := CopySeconds(512*28*28, 512)
	if perItem <= batched {
		t.Fatal("per-item copies must cost more")
	}
	// §5.2: per-datum copying costs LeNet-5 ≈ 20 %. At 100k img/s a
	// 512-image batch has a 5.12 ms compute budget; the extra copy
	// overhead must be ≈ 1 ms.
	extra := perItem - batched
	if extra < 0.0008 || extra > 0.0013 {
		t.Fatalf("per-item overhead for LeNet batch = %.4f s, want ≈ 1 ms", extra)
	}
	if CopySeconds(100, 0) != CopySeconds(100, 1) {
		t.Fatal("pieces < 1 must clamp to 1")
	}
}

func TestLMDBAnchors(t *testing.T) {
	// Figure 2: 2-GPU LMDB AlexNet = 3,200 images/s, store-bound.
	if got := LMDBAggregateRate(2); math.Abs(got-3200) > 1 {
		t.Fatalf("LMDB 2-reader rate = %.0f, want 3200", got)
	}
	// Single GPU must not be store-bound (2,446 observed ≈ GPU-bound).
	if LMDBAggregateRate(1) < AlexNet.IdealRate {
		t.Fatal("LMDB single-reader rate below AlexNet demand")
	}
	if LMDBAggregateRate(0) != LMDBAggregateRate(1) {
		t.Fatal("n<1 must clamp")
	}
	// Record-size scaling: MNIST records read much faster, capped.
	mnist := LMDBRecordRate(1, 28*28)
	if mnist <= LMDBAggregateRate(1) {
		t.Fatal("small records must read faster")
	}
	if mnist > 200000 {
		t.Fatal("per-record cap not applied")
	}
	// ~2 hours for ILSVRC12 conversion.
	hours := float64(AlexNet.EpochImages) / LMDBPrepareRate / 3600
	if hours < 1.8 || hours > 2.3 {
		t.Fatalf("LMDB prep = %.2f h, want ≈ 2", hours)
	}
}

func TestEngineCoreAnchors(t *testing.T) {
	// Figure 6(d): DLBooster ResNet-18 total ≤ 1.5 cores infer/train side.
	// The last 0.30 is the "preprocessing" slice DLBooster keeps on the
	// CPU (cmd generation + dispatcher).
	total := KernelLaunchCores + TransformCores + ModelUpdateCores + 0.30
	if total > 1.55 {
		t.Fatalf("DLBooster per-GPU cores = %.2f, want ≤ 1.5", total)
	}
}

func TestNICCoversInferenceDemand(t *testing.T) {
	// 40 Gbps of 30 KB images ≫ any model's plateau rate: the network
	// must never be the bottleneck in Figure 7.
	imgsPerSec := NICBandwidthBits / 8 / AvgJPEGBytes
	for _, p := range InferProfiles {
		if imgsPerSec < 2*p.MaxRate {
			t.Fatalf("NIC limits %s", p.Name)
		}
	}
}

func TestEconAnchors(t *testing.T) {
	// One FPGA replaces 30 cores; resale of the freed cores must exceed
	// the paper's $1.5/h at the quoted core price.
	if resale := float64(FPGAEquivalentCores) * CorePricePerHour; resale < 1.5 {
		t.Fatalf("freed-core resale $%.2f/h below $1.5/h", resale)
	}
	if !(FPGAWatts < CPUWatts && CPUWatts < GPUWatts) {
		t.Fatal("power ordering broken")
	}
}
