package core

import (
	"testing"

	"dlbooster/internal/dataset"
	"dlbooster/internal/fpga"
	"dlbooster/internal/nic"
	"dlbooster/internal/nvme"
)

// TestTable1APISurface asserts, name by name, that the public surface of
// the backend provides each API of the paper's Table 1:
//
//	FPGAChannel.submit_cmd   → FPGAChannel.SubmitCmd
//	FPGAChannel.drain_out    → FPGAChannel.DrainOut
//	MemManager.get_item      → hugepage.Pool.Get (via Booster.Pool)
//	MemManager.recycle_item  → hugepage.Pool.Put / Booster.RecycleBatch
//	MemManager.phy2virt      → hugepage.Arena.Phy2Virt
//	MemManager.virt2phy      → hugepage.Arena.Virt2Phy
//	DataCollector.load_from_disk → LoadFromDisk
//	DataCollector.load_from_net  → LoadFromNet
func TestTable1APISurface(t *testing.T) {
	spec := dataset.MNISTLike(3)
	disk := nvme.New(nvme.Config{})
	if _, err := spec.WriteToNVMe(disk); err != nil {
		t.Fatal(err)
	}
	b := newBooster(t, Config{BatchSize: 2, OutW: 28, OutH: 28, Channels: 1, PoolBatches: 2, Source: disk})

	// MemManager: get_item / phy2virt / virt2phy / recycle_item.
	pool := b.Pool()
	item, err := pool.Get() // get_item(buffer_size)
	if err != nil {
		t.Fatal(err)
	}
	phys := item.PhysAddr()
	view, err := pool.Arena().Phy2Virt(phys, item.Size()) // phy2virt(physical address)
	if err != nil {
		t.Fatal(err)
	}
	view[0] = 0xAA
	if item.Bytes()[0] != 0xAA {
		t.Fatal("phy2virt view does not alias the buffer")
	}
	back, err := pool.Arena().Virt2Phy(item.Index() * item.Size()) // virt2phy(virtual address)
	if err != nil {
		t.Fatal(err)
	}
	if back != phys {
		t.Fatalf("virt2phy = %#x, want %#x", back, phys)
	}
	if err := pool.Put(item); err != nil { // recycle_item
		t.Fatal(err)
	}

	// FPGAChannel: submit_cmd / drain_out.
	ch := b.Channel()
	buf, _ := pool.Get()
	defer func() { _ = pool.Put(buf) }()
	data := mustJPEG(t, spec, 0)
	if err := ch.SubmitCmd(fpga.Cmd{ // submit_cmd(packeted cmds)
		ID: 1, Data: fpga.DataRef{Inline: data},
		DMAAddr: buf.PhysAddr(), OutW: 28, OutH: 28, Channels: 1,
	}); err != nil {
		t.Fatal(err)
	}
	// drain_out: asynchronous best-effort query, then a bounded wait.
	var comps []fpga.Completion
	for len(comps) == 0 {
		comps = ch.DrainOut(nil)
	}
	if comps[0].ID != 1 || comps[0].Err != nil {
		t.Fatalf("completion = %+v", comps[0])
	}

	// DataCollector: load_from_disk / load_from_net.
	colDisk, err := LoadFromDisk(disk, nil) // load_from_disk
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := colDisk.Next(); !ok {
		t.Fatal("disk collector empty")
	}
	fabric := nic.New(nic.Config{})
	if err := fabric.Deliver(nic.Frame{Payload: data}); err != nil {
		t.Fatal(err)
	}
	colNet, err := LoadFromNet(fabric, 1) // load_from_net
	if err != nil {
		t.Fatal(err)
	}
	it, ok := colNet.Next()
	if !ok || it.Ref.Inline == nil {
		t.Fatal("net collector did not produce the frame")
	}
}
