package store

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
	"time"

	"spectrebench/internal/engine"
	"spectrebench/internal/faultinject"
)

// structVal is a registered structured cell value for round-trip tests.
type structVal struct {
	Name string
	Xs   []float64
}

func init() { gob.Register(structVal{}) }

func testKey(i int) engine.Key {
	return engine.Key{Workload: "test/cell", Uarch: "skylake", Config: fmt.Sprintf("case=%d", i)}
}

func openT(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir, Options{NoSync: true, Logf: t.Logf})
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

// segFiles returns the store's segment log paths in name order.
func segFiles(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, segsDirName, segPrefix+"*"+segExt))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatalf("no segment logs under %s", dir)
	}
	return paths
}

// recordOffsets scans a segment file and returns the frame offset and
// length of every record in it (the test-side mirror of the scan).
func recordOffsets(t *testing.T, path string) [][2]int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out [][2]int
	off := 0
	for off < len(data) {
		_, _, _, n, err := parseRecordV3(data, off)
		if err != nil {
			t.Fatalf("%s: record at %d: %v", path, off, err)
		}
		out = append(out, [2]int{off, n})
		off += n
	}
	return out
}

// TestRoundTripAcrossReopen pins the basic contract: heterogeneous
// values put into one store come back bit-equal from a fresh Open of
// the same directory.
func TestRoundTripAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	vals := map[int]any{
		0: float64(3.25),
		1: []string{"row-a", "row-b"},
		2: structVal{Name: "pair", Xs: []float64{1, 2.5}},
	}

	s := openT(t, dir)
	for i, v := range vals {
		s.Put(testKey(i), v, uint64(1000+i))
	}
	if st := s.Stats(); st.Puts != 3 || st.PutErrors != 0 {
		t.Fatalf("puts=%d putErrors=%d, want 3/0", st.Puts, st.PutErrors)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2 := openT(t, dir)
	defer s2.Close()
	if s2.Len() != 3 {
		t.Fatalf("reopened Len=%d, want 3", s2.Len())
	}
	for i, want := range vals {
		got, cycles, ok := s2.Get(testKey(i))
		if !ok {
			t.Fatalf("key %d: miss after reopen", i)
		}
		if cycles != uint64(1000+i) {
			t.Errorf("key %d: cycles=%d, want %d", i, cycles, 1000+i)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("key %d: value %#v, want %#v", i, got, want)
		}
	}
}

// TestWarmRePutSkipsDuplicate pins the warm-run contract `run`/serve
// depend on: re-putting a committed key writes nothing (Puts stays 0 on
// a fully warm sweep) and the stored value is untouched.
func TestWarmRePutSkipsDuplicate(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	s.Put(testKey(0), 1.5, 10)
	s.Close()

	s2 := openT(t, dir)
	defer s2.Close()
	s2.Put(testKey(0), 999.0, 999)
	if st := s2.Stats(); st.Puts != 0 || st.PutErrors != 0 {
		t.Errorf("puts=%d putErrors=%d after warm re-put, want 0/0", st.Puts, st.PutErrors)
	}
	if val, cycles, ok := s2.Get(testKey(0)); !ok || val != 1.5 || cycles != 10 {
		t.Errorf("got (%v, %d, %v), want (1.5, 10, true)", val, cycles, ok)
	}
}

// TestTornTailIsTruncatedNotQuarantined: the partial record a crash
// mid-append leaves is expected debris — the scan truncates it,
// counts it in TornTail, and quarantines nothing.
func TestTornTailIsTruncatedNotQuarantined(t *testing.T) {
	dir := t.TempDir()
	const n = 5
	s := openT(t, dir)
	for i := 0; i < n; i++ {
		s.Put(testKey(i), float64(i), uint64(i))
	}
	s.Close()

	seg := segFiles(t, dir)[0]
	recs := recordOffsets(t, seg)
	if len(recs) != n {
		t.Fatalf("%d records, want %d", len(recs), n)
	}
	last := recs[n-1]
	// Tear the last record mid-payload.
	if err := os.Truncate(seg, int64(last[0]+last[1]/2)); err != nil {
		t.Fatal(err)
	}

	s2 := openT(t, dir)
	defer s2.Close()
	st := s2.Stats()
	if st.TornTail != 1 {
		t.Errorf("tornTail=%d, want 1", st.TornTail)
	}
	if st.Quarantined != 0 {
		t.Errorf("quarantined=%d, want 0 (a torn tail is not damage)", st.Quarantined)
	}
	if s2.Len() != n-1 {
		t.Errorf("Len=%d, want %d", s2.Len(), n-1)
	}
	for i := 0; i < n-1; i++ {
		if val, _, ok := s2.Get(testKey(i)); !ok || val != float64(i) {
			t.Errorf("key %d: got (%v, %v), want (%v, true)", i, val, ok, float64(i))
		}
	}
}

// TestMidSegmentCorruptionQuarantinesAndResyncs is the crash-safety
// core for the segmented layout: a corrupt span in the middle of a log
// must cost exactly the damaged record — the scan resynchronises on the
// next valid record, sets the damaged bytes aside in quarantine/, and
// rewrites the segment so a second open finds nothing left to repair.
func TestMidSegmentCorruptionQuarantinesAndResyncs(t *testing.T) {
	dir := t.TempDir()
	const n = 6
	s := openT(t, dir)
	for i := 0; i < n; i++ {
		s.Put(testKey(i), float64(i)*1.5, uint64(100+i))
	}
	s.Close()

	seg := segFiles(t, dir)[0]
	recs := recordOffsets(t, seg)
	// Flip a payload bit of record 2 and destroy record 4's magic —
	// one checksum failure and one framing failure, with an intact
	// record between them that must keep serving.
	f, err := os.OpenFile(seg, os.O_RDWR, 0o666)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteAt([]byte{0xFF}, int64(recs[2][0]+headerLen+1))
	f.WriteAt([]byte("XXXX"), int64(recs[4][0]))
	f.Close()

	s2 := openT(t, dir)
	st := s2.Stats()
	if st.Quarantined != 2 {
		t.Errorf("quarantined=%d, want 2", st.Quarantined)
	}
	if s2.Len() != n-2 {
		t.Errorf("Len=%d, want %d", s2.Len(), n-2)
	}
	for i := 0; i < n; i++ {
		val, cycles, ok := s2.Get(testKey(i))
		if i == 2 || i == 4 {
			if ok {
				t.Errorf("key %d: served despite damage", i)
			}
			continue
		}
		if !ok || val != float64(i)*1.5 || cycles != uint64(100+i) {
			t.Errorf("key %d: got (%v, %d, %v), want (%v, %d, true)", i, val, cycles, ok, float64(i)*1.5, 100+i)
		}
	}
	// The damaged bytes are set aside, not deleted: operators can
	// inspect them.
	qents, err := os.ReadDir(filepath.Join(dir, quarantineName))
	if err != nil {
		t.Fatal(err)
	}
	if len(qents) != 2 {
		t.Errorf("quarantine/ holds %d files, want 2", len(qents))
	}
	s2.Close()

	// The scan rewrote the segment without the damaged span, so a
	// third open converges: nothing new quarantined, same entries.
	s3 := openT(t, dir)
	defer s3.Close()
	st3 := s3.Stats()
	if st3.Quarantined != 0 || st3.TornTail != 0 {
		t.Errorf("second reopen: quarantined=%d tornTail=%d, want 0/0 (repair did not converge)", st3.Quarantined, st3.TornTail)
	}
	if s3.Len() != n-2 {
		t.Errorf("second reopen: Len=%d, want %d", s3.Len(), n-2)
	}
}

// TestAbandonedTempFilesAreSwept: interrupted segment rewrites leave
// *.tmp debris that the next open removes without quarantining.
func TestAbandonedTempFilesAreSwept(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	s.Put(testKey(0), 1.0, 1)
	s.Close()
	if err := os.WriteFile(filepath.Join(dir, segsDirName, "seg-000009.log.tmp"), []byte("partial"), 0o666); err != nil {
		t.Fatal(err)
	}
	s2 := openT(t, dir)
	defer s2.Close()
	if st := s2.Stats(); st.TmpSwept != 1 || st.Quarantined != 0 {
		t.Errorf("tmpSwept=%d quarantined=%d, want 1/0", st.TmpSwept, st.Quarantined)
	}
	if s2.Len() != 1 {
		t.Errorf("Len=%d, want 1", s2.Len())
	}
}

// TestGetSelfHealsCorruptionDiscoveredOnRead covers rot that appears
// after the open scan: a Get that fails the checksum quarantines the
// record and degrades to a miss instead of returning garbage.
func TestGetSelfHealsCorruptionDiscoveredOnRead(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	defer s.Close()
	s.Put(testKey(0), 42.0, 7)

	seg := segFiles(t, dir)[0]
	f, err := os.OpenFile(seg, os.O_RDWR, 0o666)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteAt([]byte{0xAA}, int64(headerLen+2))
	f.Close()

	if _, _, ok := s.Get(testKey(0)); ok {
		t.Fatal("corrupt record served")
	}
	if st := s.Stats(); st.Quarantined != 1 || st.DeadRecords != 1 {
		t.Errorf("quarantined=%d deadRecords=%d, want 1/1", st.Quarantined, st.DeadRecords)
	}
	if s.Len() != 0 {
		t.Errorf("Len=%d after self-heal, want 0", s.Len())
	}
	// The cell re-simulates and re-puts cleanly from here on.
	s.Put(testKey(0), 42.0, 7)
	if val, _, ok := s.Get(testKey(0)); !ok || val != 42.0 {
		t.Errorf("re-put after self-heal: got (%v, %v), want (42, true)", val, ok)
	}
}

// TestRotationAndCompaction exercises segment rotation and the
// compactor: dead records (superseded by self-heals) make a sealed
// segment mostly dead, Compact rewrites its live records forward and
// deletes the file, and every live entry survives — across a reopen.
func TestRotationAndCompaction(t *testing.T) {
	old := segMaxBytes
	segMaxBytes = 256 // rotate every few records
	defer func() { segMaxBytes = old }()

	dir := t.TempDir()
	const n = 24
	s := openT(t, dir)
	for i := 0; i < n; i++ {
		s.Put(testKey(i), float64(i), uint64(i))
	}
	st := s.Stats()
	if st.Segments < 3 {
		t.Fatalf("segments=%d, want rotation to have produced several", st.Segments)
	}

	// Kill most of the first sealed segment's records via self-heal:
	// corrupt them on disk and Get them.
	first := segFiles(t, dir)[0]
	recs := recordOffsets(t, first)
	f, err := os.OpenFile(first, os.O_RDWR, 0o666)
	if err != nil {
		t.Fatal(err)
	}
	dead := map[int]bool{}
	for _, r := range recs[:len(recs)-1] { // leave one live
		f.WriteAt([]byte{0xFF}, int64(r[0]+headerLen+1))
	}
	f.Close()
	for i := 0; i < n; i++ {
		if _, _, ok := s.Get(testKey(i)); !ok {
			dead[i] = true
		}
	}
	if len(dead) != len(recs)-1 {
		t.Fatalf("self-healed %d records, want %d", len(dead), len(recs)-1)
	}

	s.Compact()
	st = s.Stats()
	if st.Compactions == 0 {
		t.Errorf("compactions=%d, want > 0", st.Compactions)
	}
	if _, err := os.Stat(first); !os.IsNotExist(err) {
		t.Errorf("compacted segment %s still on disk", first)
	}
	for i := 0; i < n; i++ {
		val, cycles, ok := s.Get(testKey(i))
		if dead[i] {
			if ok {
				t.Errorf("key %d: resurrected by compaction", i)
			}
			continue
		}
		if !ok || val != float64(i) || cycles != uint64(i) {
			t.Errorf("key %d: got (%v, %d, %v), want (%v, %d, true)", i, val, cycles, ok, float64(i), i)
		}
	}
	s.Close()

	// The compacted layout reopens clean with the same live set.
	s2 := openT(t, dir)
	defer s2.Close()
	if s2.Len() != n-len(dead) {
		t.Errorf("reopened Len=%d, want %d", s2.Len(), n-len(dead))
	}
	for i := 0; i < n; i++ {
		if _, _, ok := s2.Get(testKey(i)); ok == dead[i] {
			t.Errorf("key %d: ok=%v after reopen, want %v", i, ok, !dead[i])
		}
	}
}

// TestStoreWriteFaultDegradesCleanly drives the StoreWrite disk-full
// fault point (satellite of the segmented-store work): injected short
// writes must be rolled back — counted in PutErrors, the failed key
// absent but re-puttable, the log tail clean enough that a reopen
// finds no damage at all.
func TestStoreWriteFaultDegradesCleanly(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{NoSync: true, Logf: t.Logf, Fault: faultinject.New(42)})
	if err != nil {
		t.Fatal(err)
	}
	const n = 512 // rate is 1/64: expect several fires
	for i := 0; i < n; i++ {
		s.Put(testKey(i), float64(i), uint64(i))
	}
	st := s.Stats()
	if st.PutErrors == 0 {
		t.Fatal("no injected put errors in 512 puts at rate 1/64")
	}
	if st.Puts+st.PutErrors != n {
		t.Errorf("puts=%d + putErrors=%d != %d", st.Puts, st.PutErrors, n)
	}
	// A failed put degrades to a miss; the key can be re-put later
	// (the engine simply re-publishes next cold run).
	missing := -1
	for i := 0; i < n; i++ {
		if _, _, ok := s.Get(testKey(i)); !ok {
			missing = i
			break
		}
	}
	if missing < 0 {
		t.Fatal("every key present despite put errors")
	}
	s.Put(testKey(missing), float64(missing), uint64(missing))
	if _, _, ok := s.Get(testKey(missing)); !ok {
		t.Errorf("re-put of key %d after injected failure still missing", missing)
	}
	s.Close()

	// The rollback kept the log clean: reopening finds no torn tails,
	// no quarantines, and every committed entry.
	s2 := openT(t, dir)
	defer s2.Close()
	st2 := s2.Stats()
	if st2.TornTail != 0 || st2.Quarantined != 0 {
		t.Errorf("reopen after injected faults: tornTail=%d quarantined=%d, want 0/0", st2.TornTail, st2.Quarantined)
	}
	for i := 0; i < n; i++ {
		val, _, ok := s2.Get(testKey(i))
		if !ok {
			continue // lost to an injected failure and never re-put
		}
		if val != float64(i) {
			t.Errorf("key %d: value %v corrupted, want %v", i, val, float64(i))
		}
	}
}

// TestExclusiveLock pins single-writer semantics: a second Open of a
// live store fails with ErrLocked and succeeds after Close.
func TestExclusiveLock(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrLocked) {
		t.Fatalf("second Open: %v, want ErrLocked", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openT(t, dir)
	s2.Close()
}

// unregistered is deliberately NOT gob-registered.
type unregistered struct{ X int }

// TestPutDegradesOnUnregisteredType: an unencodable value must not
// error the caller or corrupt the store — it is counted and skipped.
func TestPutDegradesOnUnregisteredType(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	defer s.Close()
	s.Put(testKey(0), unregistered{1}, 5)
	if st := s.Stats(); st.PutErrors != 1 || st.Puts != 0 {
		t.Errorf("putErrors=%d puts=%d, want 1/0", st.PutErrors, st.Puts)
	}
	if s.Len() != 0 {
		t.Errorf("Len=%d, want 0", s.Len())
	}
}

// TestClosedStoreDegrades: Get and Put after Close are a miss and a
// no-op (the daemon's drain path closes the store while stragglers may
// still publish).
func TestClosedStoreDegrades(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	s.Put(testKey(0), 1.0, 1)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal("second Close:", err)
	}
	if _, _, ok := s.Get(testKey(0)); ok {
		t.Error("Get served after Close")
	}
	s.Put(testKey(1), 2.0, 2)
	if st := s.Stats(); st.Puts != 1 {
		t.Errorf("puts=%d after post-close Put, want 1", st.Puts)
	}
}

// killHelperEnv gates the re-exec helper below.
const killHelperEnv = "SPECTREBENCH_STORE_KILL_HELPER"

// TestKillNineMidWriteNeverCorruptsCommittedEntries re-executes the
// test binary as a writer child that puts entries as fast as it can,
// SIGKILLs it mid-stream, and reopens the directory: every committed
// entry must read back intact, nothing may be quarantined (a torn log
// tail is truncated, not quarantined), and the committed set must be a
// clean prefix of the append order. Repeated for several kill/reopen
// rounds on the same directory.
func TestKillNineMidWriteNeverCorruptsCommittedEntries(t *testing.T) {
	if dir := os.Getenv(killHelperEnv); dir != "" {
		killHelperMain(dir)
		return
	}
	if testing.Short() {
		t.Skip("subprocess kill rounds are slow")
	}

	dir := t.TempDir()
	prev := 0
	for round := 0; round < 3; round++ {
		cmd := exec.Command(os.Args[0], "-test.run=TestKillNineMidWriteNeverCorruptsCommittedEntries$")
		cmd.Env = append(os.Environ(), killHelperEnv+"="+dir)
		if err := cmd.Start(); err != nil {
			t.Fatalf("round %d: start helper: %v", round, err)
		}
		time.Sleep(150 * time.Millisecond)
		if err := cmd.Process.Kill(); err != nil {
			t.Fatalf("round %d: kill: %v", round, err)
		}
		cmd.Wait() // reaps; exit status is the kill signal, ignore

		s := openT(t, dir)
		st := s.Stats()
		if st.Quarantined != 0 {
			t.Fatalf("round %d: %d committed entries quarantined after kill -9", round, st.Quarantined)
		}
		// The helper writes keys sequentially, so the committed set is a
		// prefix; verify every indexed entry round-trips with the value
		// the helper derives from its index.
		got := 0
		for ; ; got++ {
			val, cycles, ok := s.Get(killKey(got))
			if !ok {
				break
			}
			if want := killVal(got); val != want || cycles != uint64(got) {
				t.Fatalf("round %d: entry %d: got (%v, %d), want (%v, %d)", round, got, val, cycles, want, got)
			}
		}
		if got != s.Len() {
			t.Fatalf("round %d: verified prefix %d != Len %d (committed set is not a clean prefix)", round, got, s.Len())
		}
		if got < prev {
			t.Fatalf("round %d: entries went backwards (%d -> %d)", round, prev, got)
		}
		prev = got
		if err := s.Close(); err != nil {
			t.Fatalf("round %d: close: %v", round, err)
		}
	}
	if prev == 0 {
		t.Skip("helper committed no entries before the kill; nothing exercised")
	}
}

func killKey(i int) engine.Key {
	return engine.Key{Workload: "kill/cell", Uarch: "skylake", Config: "i=" + strconv.Itoa(i)}
}

func killVal(i int) float64 { return float64(i)*2.5 + 0.25 }

// killHelperMain is the writer child: it opens the store and puts
// sequential entries until SIGKILLed. NoSync keeps the write rate high
// (the contract under test is atomicity against process death, which
// tail-only appends give with or without the fsync).
func killHelperMain(dir string) {
	s, err := Open(dir, Options{NoSync: true})
	if err != nil {
		fmt.Fprintln(os.Stderr, "kill helper:", err)
		os.Exit(1)
	}
	for i := 0; ; i++ {
		s.Put(killKey(i), killVal(i), uint64(i))
	}
}

// ---- legacy layouts ----

// gobTriple encodes gob(key) gob(cycles) gob(value) as one stream: the
// payload of v1 cell files and v2 records, and the value bytes of a
// vcodecGobTriple v3 record.
func gobTriple(t *testing.T, key engine.Key, cycles uint64, val any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	for _, v := range []any{&key, cycles, &val} {
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// frame wraps payload in the magic/CRC32/length header all three
// layouts share.
func frame(magic string, payload []byte) []byte {
	buf := make([]byte, headerLen+len(payload))
	copy(buf, magic)
	binary.BigEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	binary.BigEndian.PutUint32(buf[8:12], uint32(len(payload)))
	copy(buf[headerLen:], payload)
	return buf
}

// writeFiles creates each relative path under dir with its contents
// (a trailing slash makes an empty directory).
func writeFiles(t *testing.T, dir string, files map[string][]byte) {
	t.Helper()
	for rel, data := range files {
		path := filepath.Join(dir, rel)
		if rel[len(rel)-1] == '/' {
			if err := os.MkdirAll(path, 0o777); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o666); err != nil {
			t.Fatal(err)
		}
	}
}

// treeOf maps every path under dir to its bytes ("/" marks a
// directory): the before/after picture of a refused Open.
func treeOf(t *testing.T, dir string) map[string]string {
	t.Helper()
	tree := map[string]string{}
	err := filepath.Walk(dir, func(path string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		if fi.IsDir() {
			tree[rel] = "/"
			return nil
		}
		data, err := os.ReadFile(path)
		tree[rel] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// TestLegacyFormatRefused: a v1 cells/ directory, a v2 segment log and
// the debris of an interrupted v2→v3 migration are each refused with
// ErrLegacyFormat, and Open leaves every name and byte in place — no
// LOCK created, nothing quarantined, moved or truncated.
func TestLegacyFormatRefused(t *testing.T) {
	v1 := frame("SBC1", gobTriple(t, testKey(0), 10, 0.5))
	v2 := append(frame("SBS2", gobTriple(t, testKey(0), 10, 0.5)),
		frame("SBS2", gobTriple(t, testKey(1), 11, []string{"a"}))...)
	layouts := map[string]map[string][]byte{
		"v1": {
			"cells/00000000000000aa.cell": v1,
			"cells/put-7-1.tmp":           []byte("partial"),
		},
		"v2": {
			"LOCK":                    []byte("4242\n"),
			"quarantine/":             nil,
			"segments/seg-000001.log": v2,
			"segments/seg-000002.log": v2[:len(v2)-5], // torn tail
		},
		"migration-debris": {
			"segments/seg-000001.log":    frame("SBS3", encodeV3Payload(testKey(0), 10, vcodecGobTriple, gobTriple(t, testKey(0), 10, 0.5))),
			"segments.v3/seg-000001.log": v2,
		},
	}
	for name, files := range layouts {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			writeFiles(t, dir, files)
			before := treeOf(t, dir)
			if s, err := Open(dir, Options{NoSync: true, Logf: t.Logf}); !errors.Is(err, ErrLegacyFormat) {
				if s != nil {
					s.Close()
				}
				t.Fatalf("Open = %v, want ErrLegacyFormat", err)
			}
			if after := treeOf(t, dir); !reflect.DeepEqual(before, after) {
				t.Errorf("refused Open changed the directory:\nbefore %q\nafter  %q", before, after)
			}
		})
	}
}
