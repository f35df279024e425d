package sparse

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The SpMV's row fan-out, the one node-local kernel in this repository big
// enough to split across cores. A MulMatScatter of at least fanOutNNZ
// stored entries times columns is cut into row chunks: the caller
// offers the product to a pool of GOMAXPROCS-1 resident workers and then
// claims chunks itself off an atomic counter, so idle workers only steal
// chunks, and with every worker busy the caller scores them all. Each row is
// scored by one goroutine into its own output row, so the result is the
// serial product's, bit for bit, however the chunks are shared out.

// fanOutRows is the target row-chunk size of the fan-out: a product of n
// rows is cut into ceil(n/fanOutRows) nearly equal chunks, the first
// n%nchunks of them one row longer. Chunks write disjoint output rows, so
// the grid balances load and never moves a bit. Fixed 256-row chunks, the
// last one short, measured about 15 % more SpMV CPU in the elasticity
// workload's recovered solves on a 2-core box.
const fanOutRows = 256

// fanOutNNZ is the product size, stored entries times columns, from which
// MulMatScatter fans out.
const fanOutNNZ = 1 << 14

// rowTask is one offered product. Tasks are recycled through taskPool, so a
// fan-out allocates nothing once warm.
type rowTask struct {
	m       *CSR
	y, x    []float64
	rows    []int
	k       int
	nchunks int
	next    atomic.Int64   // the next chunk to claim
	chunks  sync.WaitGroup // one count per chunk not yet scored
	// refs counts the goroutines holding the task: the caller and each
	// worker it was handed to. A worker may pick the task up after its last
	// chunk is done, so the task is recycled only when the last holder has
	// left run, never while a late worker can still read its fields.
	refs atomic.Int32
}

// run scores chunks until none is left to claim.
func (t *rowTask) run() {
	for {
		c := int(t.next.Add(1)) - 1
		if c >= t.nchunks {
			return
		}
		q, r := t.m.Rows/t.nchunks, t.m.Rows%t.nchunks
		lo := c*q + min(c, r)
		hi := lo + q
		if c < r {
			hi++
		}
		t.m.scatterRows(t.y, t.x, t.rows, t.k, lo, hi)
		t.chunks.Done()
	}
}

// release drops one holder's reference; the last holder recycles the task.
func (t *rowTask) release() {
	if t.refs.Add(-1) == 0 {
		t.m, t.y, t.x, t.rows = nil, nil, nil, nil
		taskPool.Put(t)
	}
}

var (
	taskPool    = sync.Pool{New: func() any { return new(rowTask) }}
	workersOnce sync.Once
	// workQueue hands offered tasks to the resident workers, one slot per
	// worker. Offers never block: a full queue means every worker is busy,
	// and the caller scores its chunks regardless.
	workQueue chan *rowTask
	workers   int
)

func startWorkers() {
	workersOnce.Do(func() {
		workers = max(runtime.GOMAXPROCS(0)-1, 0)
		workQueue = make(chan *rowTask, workers)
		for range workers {
			go func() {
				for t := range workQueue {
					t.run()
					t.release()
				}
			}()
		}
	})
}

// fanOut is scatterRows over every row of m, its chunks shared with idle
// workers.
func (m *CSR) fanOut(y, x []float64, rows []int, k int) {
	startWorkers()
	nchunks := (m.Rows + fanOutRows - 1) / fanOutRows
	if nchunks < 2 || workers == 0 {
		m.scatterRows(y, x, rows, k, 0, m.Rows)
		return
	}
	t := taskPool.Get().(*rowTask)
	t.m, t.y, t.x, t.rows, t.k, t.nchunks = m, y, x, rows, k, nchunks
	t.next.Store(0)
	t.refs.Store(1)
	t.chunks.Add(nchunks)
offer:
	for range min(workers, nchunks-1) {
		t.refs.Add(1)
		select {
		case workQueue <- t:
		default:
			t.refs.Add(-1)
			break offer
		}
	}
	t.run()
	// run returns once every chunk is claimed; workers may still be
	// scoring theirs.
	t.chunks.Wait()
	t.release()
}
