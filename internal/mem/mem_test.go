package mem

import (
	"testing"
	"testing/quick"
)

func TestPhysReadWrite64(t *testing.T) {
	p := NewPhys(true)
	if got := p.Read64(0x1000); got != 0 {
		t.Errorf("untouched memory = %#x, want 0", got)
	}
	p.Write64(0x1000, 0xdeadbeefcafef00d)
	if got := p.Read64(0x1000); got != 0xdeadbeefcafef00d {
		t.Errorf("read back = %#x", got)
	}
	// Neighbour remains zero.
	if got := p.Read64(0x1008); got != 0 {
		t.Errorf("neighbour = %#x, want 0", got)
	}
}

func TestPhysRoundTripProperty(t *testing.T) {
	p := NewPhys(true)
	f := func(page uint16, slot uint16, v uint64) bool {
		pa := uint64(page)<<PageShift | uint64(slot%512)*8
		p.Write64(pa, v)
		return p.Read64(pa) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPhysBytesCrossPage(t *testing.T) {
	p := NewPhys(true)
	data := make([]byte, 2*PageSize+17)
	for i := range data {
		data[i] = byte(i * 7)
	}
	base := uint64(0x5ff0) // deliberately unaligned, crosses pages
	p.WriteBytes(base, data)
	got := make([]byte, len(data))
	p.ReadBytes(base, got)
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("byte %d = %#x, want %#x", i, got[i], data[i])
		}
	}
}

func TestPhysReadBytesUnmapped(t *testing.T) {
	p := NewPhys(true)
	buf := []byte{1, 2, 3, 4}
	p.ReadBytes(0x123456, buf)
	for i, b := range buf {
		if b != 0 {
			t.Errorf("buf[%d] = %d, want 0", i, b)
		}
	}
}

func TestTranslatePermissions(t *testing.T) {
	reg := NewRegistry()
	pt := reg.NewTable(1)
	pt.Map(VPN(0x400000), PTE{Phys: 0x8000, Present: true, Writable: false, User: true})
	pt.Map(VPN(0x500000), PTE{Phys: 0x9000, Present: true, Writable: true, User: false})
	pt.Map(VPN(0x600000), PTE{Phys: 0xa000, Present: true, Writable: true, User: true, NX: true})
	pt.Map(VPN(0x700000), PTE{Phys: 0xb000, Present: false, User: true})

	cases := []struct {
		name  string
		va    uint64
		acc   Access
		user  bool
		fault FaultKind
		pa    uint64
	}{
		{"user read user page", 0x400008, AccessRead, true, FaultNone, 0x8008},
		{"user write ro page", 0x400008, AccessWrite, true, FaultWrite, 0},
		{"user read kernel page", 0x500000, AccessRead, true, FaultProtection, 0},
		{"kernel read kernel page", 0x500010, AccessRead, false, FaultNone, 0x9010},
		{"kernel write kernel page", 0x500010, AccessWrite, false, FaultNone, 0x9010},
		{"fetch nx page", 0x600000, AccessFetch, true, FaultNX, 0},
		{"read nx page ok", 0x600000, AccessRead, true, FaultNone, 0xa000},
		{"not present", 0x700000, AccessRead, true, FaultNotPresent, 0},
		{"unmapped", 0x800000, AccessRead, false, FaultNotPresent, 0},
	}
	for _, c := range cases {
		pa, _, fault := pt.Translate(c.va, c.acc, c.user)
		if fault != c.fault {
			t.Errorf("%s: fault = %v, want %v", c.name, fault, c.fault)
		}
		if fault == FaultNone && pa != c.pa {
			t.Errorf("%s: pa = %#x, want %#x", c.name, pa, c.pa)
		}
	}
}

func TestMapRange(t *testing.T) {
	reg := NewRegistry()
	pt := reg.NewTable(0)
	pt.MapRange(0x400000, 0x10000, 4, true, true, false, false)
	for i := 0; i < 4; i++ {
		va := uint64(0x400000 + i*PageSize + 24)
		pa, _, fault := pt.Translate(va, AccessWrite, true)
		if fault != FaultNone {
			t.Fatalf("page %d: fault %v", i, fault)
		}
		want := uint64(0x10000 + i*PageSize + 24)
		if pa != want {
			t.Errorf("page %d: pa = %#x, want %#x", i, pa, want)
		}
	}
	if _, _, fault := pt.Translate(0x400000+4*PageSize, AccessRead, true); fault != FaultNotPresent {
		t.Error("page past range should not be mapped")
	}
}

func TestCloneIndependence(t *testing.T) {
	reg := NewRegistry()
	pt := reg.NewTable(1)
	pt.MapRange(0x1000, 0x2000, 1, true, true, false, false)
	cl := pt.Clone(reg, 2)
	if cl.Root == pt.Root {
		t.Fatal("clone must get a fresh root")
	}
	if cl.PCID != 2 {
		t.Errorf("clone pcid = %d, want 2", cl.PCID)
	}
	// Clone sees the mapping.
	if _, _, fault := cl.Translate(0x1000, AccessRead, true); fault != FaultNone {
		t.Error("clone lost mapping")
	}
	// Mutating the clone does not affect the original.
	cl.Unmap(VPN(0x1000))
	if _, _, fault := pt.Translate(0x1000, AccessRead, true); fault != FaultNone {
		t.Error("unmapping clone affected original")
	}
}

func TestCR3Encoding(t *testing.T) {
	reg := NewRegistry()
	pt := reg.NewTable(0xabc)
	cr3 := CR3(pt)
	if CR3Root(cr3) != pt.Root {
		t.Errorf("root round trip: %#x != %#x", CR3Root(cr3), pt.Root)
	}
	if CR3PCID(cr3) != 0xabc {
		t.Errorf("pcid round trip: %#x", CR3PCID(cr3))
	}
	if reg.Lookup(CR3Root(cr3)) != pt {
		t.Error("registry lookup failed")
	}
}

func TestNestedTranslate(t *testing.T) {
	nt := NewNestedTable()
	nt.MapRange(0x0, 0x100000, 16, true)
	pa, fault := nt.Translate(0x3456, AccessRead)
	if fault != FaultNone || pa != 0x103456 {
		t.Errorf("nested translate = %#x/%v", pa, fault)
	}
	if _, fault := nt.Translate(0x10000000, AccessRead); fault != FaultNotPresent {
		t.Error("unmapped gpa should fault")
	}
	// Read-only nested page rejects writes.
	ro := NewNestedTable()
	ro.MapRange(0x0, 0x0, 1, false)
	if _, fault := ro.Translate(0x10, AccessWrite); fault != FaultWrite {
		t.Error("write to ro nested page should fault")
	}
}

func TestFaultKindString(t *testing.T) {
	kinds := []FaultKind{FaultNone, FaultNotPresent, FaultProtection, FaultWrite, FaultNX}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Errorf("bad or duplicate string %q", s)
		}
		seen[s] = true
	}
}

func TestPhys64CrossPageNoPanic(t *testing.T) {
	p := NewPhys(true)
	// A 64-bit access straddling a page boundary must not panic: the
	// core raises an alignment fault for virtual accesses before they
	// reach physical memory, but library callers (device DMA, debug
	// dumps) may still hand us any address.
	pa := uint64(2*PageSize - 3)
	p.Write64(pa, 0x1122334455667788)
	if got := p.Read64(pa); got != 0x1122334455667788 {
		t.Errorf("cross-page read back = %#x", got)
	}
	// The byte-wise path must agree with WriteBytes layout.
	var buf [8]byte
	p.ReadBytes(pa, buf[:])
	var fromBytes uint64
	for i, b := range buf {
		fromBytes |= uint64(b) << (8 * i)
	}
	if fromBytes != 0x1122334455667788 {
		t.Errorf("byte view = %#x, want little-endian value", fromBytes)
	}
	// Neighbouring aligned words see exactly the overlapping bytes.
	if p.Read64(2*PageSize-8)>>40 != 0x667788 {
		t.Errorf("low page tail = %#x", p.Read64(2*PageSize-8))
	}
}
