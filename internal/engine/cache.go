package engine

import (
	"bufio"
	"container/list"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"zkrownn/internal/groth16"
	"zkrownn/internal/r1cs"
)

// KeyPair bundles the Groth16 keys produced by one trusted setup. In
// in-memory mode PK is populated; in out-of-core mode PK is nil and
// Stream and CSFile serve the key and the constraint system from disk.
// VK is always resident.
type KeyPair struct {
	PK *groth16.ProvingKey
	VK *groth16.VerifyingKey
	// Stream is the disk-backed proving key used when the engine's
	// memory budget ruled out materializing PK.
	Stream *groth16.StreamedProvingKey
	// CSFile is the disk-resident constraint system the streamed key was
	// set up from: proves stream constraint rows from it and spill the
	// witness to disk. Like Stream, it shares the cache entry's
	// lifetime.
	CSFile *r1cs.CompiledSystemFile
}

// Streamed reports whether the keys are out-of-core.
func (kp *KeyPair) Streamed() bool { return kp.Stream != nil }

// PKSizeBytes returns the serialized size of the proving key in
// whichever backend holds it: the compressed WriteTo size for an
// in-memory key, the raw on-disk size for a streamed one.
func (kp *KeyPair) PKSizeBytes() int64 {
	switch {
	case kp.PK != nil:
		return kp.PK.SizeBytes()
	case kp.Stream != nil:
		return kp.Stream.SizeBytes()
	}
	return 0
}

// keyCache is a circuit-digest-keyed LRU of Groth16 key pairs with
// optional write-through persistence to a directory. Proving keys are
// large (tens of MB at paper scale), so the in-memory tier is bounded by
// entry count and the disk tier — when enabled — survives process
// restarts, letting a redeployed prover service skip every trusted setup
// it has ever run.
//
// Each entry also retains the compiled constraint system the keys were
// set up for: key and circuit share a lifetime (both are functions of
// the digest), so solve-many callers can address the circuit by digest
// without re-sending the CSR matrices. The circuit is memory-only — the
// disk tier persists keys, and a disk hit re-attaches whatever compiled
// system the triggering request carried.
type keyCache struct {
	mu      sync.Mutex
	maxSize int
	dir     string // "" disables the disk tier
	order   *list.List
	entries map[string]*list.Element
}

type cacheEntry struct {
	digest string
	keys   *KeyPair
	cs     *r1cs.CompiledSystem
}

func newKeyCache(maxSize int, dir string) *keyCache {
	return &keyCache{
		maxSize: maxSize,
		dir:     dir,
		order:   list.New(),
		entries: make(map[string]*list.Element),
	}
}

// getMem returns the key pair for a digest from the in-memory LRU,
// attaching cs (when non-nil) to the entry so later digest-only
// requests can find the circuit.
func (c *keyCache) getMem(digest string, cs *r1cs.CompiledSystem) (*KeyPair, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[digest]; ok {
		c.order.MoveToFront(el)
		entry := el.Value.(*cacheEntry)
		if entry.cs == nil {
			entry.cs = cs
		}
		return entry.keys, true
	}
	return nil, false
}

// circuit returns the compiled system cached beside the keys for a
// digest, without disturbing the LRU order more than a lookup must.
func (c *keyCache) circuit(digest string) (*r1cs.CompiledSystem, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[digest]; ok {
		c.order.MoveToFront(el)
		if cs := el.Value.(*cacheEntry).cs; cs != nil {
			return cs, true
		}
	}
	return nil, false
}

// getDisk loads a key pair from the disk tier (if configured) and
// promotes it to memory. Callers are expected to hold the engine's
// per-digest singleflight so a cold burst deserializes a key file once.
func (c *keyCache) getDisk(digest string, cs *r1cs.CompiledSystem) (*KeyPair, bool) {
	if c.dir == "" {
		return nil, false
	}
	keys, err := c.loadDisk(digest)
	if err != nil {
		return nil, false
	}
	c.putMem(digest, keys, cs)
	return keys, true
}

// put stores a fresh key pair in memory and, when a directory is
// configured, on disk. Disk write failures are returned but leave the
// memory tier populated — the engine keeps working, just without
// persistence.
func (c *keyCache) put(digest string, keys *KeyPair, cs *r1cs.CompiledSystem) error {
	c.putMem(digest, keys, cs)
	if c.dir == "" {
		return nil
	}
	return c.storeDisk(digest, keys)
}

func (c *keyCache) putMem(digest string, keys *KeyPair, cs *r1cs.CompiledSystem) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[digest]; ok {
		c.order.MoveToFront(el)
		entry := el.Value.(*cacheEntry)
		entry.keys = keys
		if cs != nil {
			entry.cs = cs
		}
		return
	}
	el := c.order.PushFront(&cacheEntry{digest: digest, keys: keys, cs: cs})
	c.entries[digest] = el
	for c.maxSize > 0 && c.order.Len() > c.maxSize {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).digest)
	}
}

// len reports the number of in-memory entries.
func (c *keyCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// clear drops every in-memory entry (the disk tier is untouched).
func (c *keyCache) clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.order.Init()
	c.entries = make(map[string]*list.Element)
}

func (c *keyCache) pkPath(digest string) string {
	return filepath.Join(c.dir, digest+".pk")
}

func (c *keyCache) vkPath(digest string) string {
	return filepath.Join(c.dir, digest+".vk")
}

// loadDisk reads a cached key pair, validating each file's integrity
// frame before trusting it — a truncated or corrupted file surfaces
// here as an error, which getDisk turns into a miss. The proving key
// uses the raw (uncompressed) encoding: loading it costs a linear pass
// of cheap field decodings instead of one modular square root per
// point, which would otherwise make a disk hit slower than re-running
// setup for small circuits. The directory is the operator's own
// material, so the weaker G2 checks of the raw format are acceptable.
func (c *keyCache) loadDisk(digest string) (*KeyPair, error) {
	pkf, pkr, err := openFramed(c.pkPath(digest))
	if err != nil {
		return nil, fmt.Errorf("engine: cached proving key %s: %w", digest, err)
	}
	defer pkf.Close()
	vkf, vkr, err := openFramed(c.vkPath(digest))
	if err != nil {
		return nil, fmt.Errorf("engine: cached verifying key %s: %w", digest, err)
	}
	defer vkf.Close()

	keys := &KeyPair{PK: new(groth16.ProvingKey), VK: new(groth16.VerifyingKey)}
	if _, err := keys.PK.ReadRawFrom(bufio.NewReaderSize(pkr, 1<<20)); err != nil {
		return nil, fmt.Errorf("engine: corrupt cached proving key %s: %w", digest, err)
	}
	if _, err := keys.VK.ReadFrom(bufio.NewReader(vkr)); err != nil {
		return nil, fmt.Errorf("engine: corrupt cached verifying key %s: %w", digest, err)
	}
	return keys, nil
}

// storeDisk writes both keys framed (size + checksum header) via
// temp-file rename, so a crash mid-write never publishes a partial key
// and a later corruption is caught at load time.
func (c *keyCache) storeDisk(digest string, keys *KeyPair) error {
	if err := writeFramedFile(c.pkPath(digest), func(w io.Writer) error {
		_, err := keys.PK.WriteRawTo(w)
		return err
	}); err != nil {
		return err
	}
	return writeFramedFile(c.vkPath(digest), func(w io.Writer) error {
		_, err := keys.VK.WriteTo(w)
		return err
	})
}

// AtomicWriteFile writes path via temp-file rename so a crash mid-write
// never leaves a truncated artifact that a later run would trust. Shared
// by the key cache and the proof service's model registry.
func AtomicWriteFile(path string, fn func(io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	bw := bufio.NewWriterSize(tmp, 1<<20)
	if err := fn(bw); err != nil {
		tmp.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
