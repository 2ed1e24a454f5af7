package core

// fixedTable is a fixed-capacity hash table keyed by a 64-bit address: an
// entry array sized once at construction, a LIFO free list of entry
// indices, and a chained hash whose buckets hold the index of each chain's
// first entry (-1 when empty). It is the L2 MAF's shape. Nothing allocates
// after construction, and entries never move, so an entry pointer can ride
// along as a completion-callback argument. The core keeps two: the MSHR file
// (line -> loads waiting on its fill) and each thread's store table
// (quadword -> youngest in-flight store writing it).
type fixedTable[V any] struct {
	ents  []tableEntry[V]
	free  []int32
	hash  []int32
	shift uint // 64 - log2(len(hash))
}

type tableEntry[V any] struct {
	key  uint64
	val  V
	next int32 // next entry in the same bucket, or -1
}

func newFixedTable[V any](capacity int) fixedTable[V] {
	// Two buckets per entry keeps chains short at full occupancy.
	nb, lg := 1, uint(0)
	for nb < 2*capacity {
		nb, lg = nb<<1, lg+1
	}
	t := fixedTable[V]{
		ents:  make([]tableEntry[V], capacity),
		free:  make([]int32, capacity),
		hash:  make([]int32, nb),
		shift: 64 - lg,
	}
	for i := range t.hash {
		t.hash[i] = -1
	}
	for i := range t.free {
		// Popped from the back: entry 0 is handed out first.
		t.free[i] = int32(capacity - 1 - i)
	}
	return t
}

// Len returns the number of occupied entries.
func (t *fixedTable[V]) Len() int { return len(t.ents) - len(t.free) }

// Full reports whether every entry is occupied.
func (t *fixedTable[V]) Full() bool { return len(t.free) == 0 }

// bucket hashes a key to its bucket (Fibonacci hashing, so power-of-two
// address strides still spread across buckets).
func (t *fixedTable[V]) bucket(key uint64) int {
	return int((key * 0x9E3779B97F4A7C15) >> t.shift)
}

// find returns the entry holding key, or nil.
func (t *fixedTable[V]) find(key uint64) *tableEntry[V] {
	for i := t.hash[t.bucket(key)]; i >= 0; i = t.ents[i].next {
		if t.ents[i].key == key {
			return &t.ents[i]
		}
	}
	return nil
}

// insert takes a free entry for key, which must not be present, and returns
// it with whatever value its previous occupant left. The caller checks Full
// first; inserting into a full table is a broken bound and panics.
func (t *fixedTable[V]) insert(key uint64) *tableEntry[V] {
	n := len(t.free)
	if n == 0 {
		panic("core: fixed table overflow")
	}
	i := t.free[n-1]
	t.free = t.free[:n-1]
	e := &t.ents[i]
	b := t.bucket(key)
	e.key, e.next = key, t.hash[b]
	t.hash[b] = i
	return e
}

// remove unlinks the occupied entry e from its chain and frees it. e.val is
// left as is: the MSHR file keeps its waiter slice's capacity for the next
// miss, and the store table clears its pointer itself.
func (t *fixedTable[V]) remove(e *tableEntry[V]) {
	p := &t.hash[t.bucket(e.key)]
	for t.ents[*p].key != e.key {
		p = &t.ents[*p].next
	}
	i := *p
	*p = e.next
	t.free = append(t.free, i)
}
