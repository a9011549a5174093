package rpcmr

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"repro/internal/mapreduce"
)

// Streaming shuffle transport.
//
// Reducers fetch remote map outputs over a purpose-built raw-TCP protocol
// rather than net/rpc, so a fetch pays no reflection-based encode/decode
// and never buffers a whole partition in one reply. It streams the
// partition as record frames — the same uint32-length-prefixed layout the
// spill run files use (mapreduce/frame.go) — in bounded chunks, with
// optional per-chunk DEFLATE compression negotiated by the fetcher.
//
// Wire protocol, little-endian throughout. One connection serves many
// sequential requests (reducers pool connections per peer):
//
//	request:  uint32 magic "DPS1" | uint32 jobID | uint32 mapTask |
//	          uint32 partition | uint32 chunkHint | uint8 flags
//	response: uint8 status
//	  status 1 (error):  uint32 msgLen | msg   — connection stays usable
//	  status 0 (ok):     chunk stream:
//	    chunk:  uint32 rawLen | uint32 wireLen | wireLen payload bytes
//	            (payload is DEFLATE-compressed iff wireLen < rawLen)
//	    end:    rawLen == 0 && wireLen == 0, then uint32 recordCount
//
// A chunk always holds whole frames, so the fetcher decodes each chunk
// independently and never buffers more than one chunk plus the decoded
// pairs. Compression is applied per chunk and only kept when it actually
// shrinks the payload (wireLen == rawLen signals a raw chunk), so
// incompressible data pays one cheap attempt, not a size regression.
const (
	shuffleMagic       = 0x31535044 // "DPS1"
	shuffleFlagDeflate = 1 << 0

	// defaultShuffleChunkBytes bounds how much framed data one chunk
	// carries; a reducer never holds a peer's whole partition in a single
	// reply buffer.
	defaultShuffleChunkBytes = 256 << 10
	// compressMinChunkBytes skips the DEFLATE attempt on tiny chunks,
	// where the header overhead dominates any win.
	compressMinChunkBytes = 512
	// maxIdleStreamsPerPeer caps pooled idle connections per peer.
	maxIdleStreamsPerPeer = 4
	// shuffleIOTimeout bounds one request/response exchange so a hung
	// peer surfaces as a retriable error instead of a stuck reducer.
	shuffleIOTimeout = 60 * time.Second
)

// Job Conf keys controlling the reduce-side shuffle. They ship with the
// job like every other parameter, so a pipeline can tune its transport
// per job without touching worker deployment.
const (
	// ConfShuffleCompress requests per-chunk DEFLATE compression.
	ConfShuffleCompress = "mr.shuffle.compress"
	// ConfShuffleChunkBytes overrides the transport chunk size.
	ConfShuffleChunkBytes = "mr.shuffle.chunk.bytes"
	// ConfShuffleFetchers bounds the concurrent fetch worker pool.
	ConfShuffleFetchers = "mr.shuffle.fetchers"
	// ConfShuffleRetries is how many times a transient fetch failure is
	// retried (with exponential backoff) before the map output is
	// declared lost.
	ConfShuffleRetries = "mr.shuffle.retries"
)

const (
	defaultShuffleFetchers = 4
	defaultShuffleRetries  = 2
	shuffleRetryBackoff    = 25 * time.Millisecond
)

// errShuffleMissing marks a permanent fetch failure: the peer is alive
// but no longer has the map output. Retrying the same peer cannot help;
// only the master re-executing the map task can.
var errShuffleMissing = errors.New("rpcmr: map output missing on peer")

// fetchStats accounts one streamed fetch at the transport level.
type fetchStats struct {
	// rawBytes is the framed payload plus chunk headers before
	// compression — what would cross the wire with compression off.
	rawBytes int64
	// wireBytes is what actually crossed the wire (post-compression).
	wireBytes int64
	records   int64
}

// fetchOptions is the reduce side's per-job transport configuration,
// resolved from the job Conf.
type fetchOptions struct {
	compress   bool
	chunkBytes int
	fetchers   int
	retries    int
}

func fetchOptionsFromConf(conf mapreduce.Conf) fetchOptions {
	o := fetchOptions{
		compress:   conf.GetBool(ConfShuffleCompress, false),
		chunkBytes: conf.GetInt(ConfShuffleChunkBytes, defaultShuffleChunkBytes),
		fetchers:   conf.GetInt(ConfShuffleFetchers, defaultShuffleFetchers),
		retries:    conf.GetInt(ConfShuffleRetries, defaultShuffleRetries),
	}
	if o.chunkBytes <= 0 {
		o.chunkBytes = defaultShuffleChunkBytes
	}
	if o.fetchers <= 0 {
		o.fetchers = defaultShuffleFetchers
	}
	if o.retries < 0 {
		o.retries = 0
	}
	return o
}

// ---- server side ----

// serveShuffleLoop accepts streaming shuffle connections until the
// listener closes.
func (w *Worker) serveShuffleLoop(lis net.Listener) {
	for {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		go w.serveShuffleConn(conn)
	}
}

// shuffleServeState holds per-connection reusable buffers.
type shuffleServeState struct {
	chunk []byte
	comp  bytes.Buffer
	fl    *flate.Writer
}

// serveShuffleConn answers fetch requests on one connection until the
// peer hangs up or an I/O error occurs.
func (w *Worker) serveShuffleConn(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReaderSize(conn, 64<<10)
	bw := bufio.NewWriterSize(conn, 64<<10)
	st := &shuffleServeState{}
	for {
		var req [21]byte
		if _, err := io.ReadFull(br, req[:]); err != nil {
			return
		}
		if binary.LittleEndian.Uint32(req[0:4]) != shuffleMagic {
			return
		}
		jobID := int(binary.LittleEndian.Uint32(req[4:8]))
		mapTask := int(binary.LittleEndian.Uint32(req[8:12]))
		partition := int(binary.LittleEndian.Uint32(req[12:16]))
		chunkBytes := int(binary.LittleEndian.Uint32(req[16:20]))
		if chunkBytes <= 0 {
			chunkBytes = defaultShuffleChunkBytes
		}
		compress := req[20]&shuffleFlagDeflate != 0

		pairs, err := w.partitionForShuffle(jobID, mapTask, partition)
		if err != nil {
			msg := err.Error()
			bw.WriteByte(1)
			var n [4]byte
			binary.LittleEndian.PutUint32(n[:], uint32(len(msg)))
			bw.Write(n[:])
			bw.WriteString(msg)
			if err := bw.Flush(); err != nil {
				return
			}
			continue
		}
		bw.WriteByte(0)
		if err := w.streamPartition(bw, st, pairs, chunkBytes, compress, jobID, mapTask, partition); err != nil {
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
	}
}

// partitionForShuffle resolves a stored map-output partition.
func (w *Worker) partitionForShuffle(jobID, mapTask, partition int) ([]mapreduce.Pair, error) {
	w.mu.Lock()
	parts, ok := w.store[storeKey{jobID: jobID, mapTask: mapTask}]
	w.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("rpcmr: map output %d/%d not on this worker", jobID, mapTask)
	}
	if partition < 0 || partition >= len(parts) {
		return nil, fmt.Errorf("rpcmr: partition %d out of range", partition)
	}
	return parts[partition], nil
}

// streamPartition frames pairs into bounded chunks and writes them to bw.
func (w *Worker) streamPartition(bw *bufio.Writer, st *shuffleServeState, pairs []mapreduce.Pair, chunkBytes int, compress bool, jobID, mapTask, partition int) error {
	chunkIdx := 0
	emit := func(chunk []byte) error {
		if hook := w.shuffleChunkHook; hook != nil {
			if err := hook(jobID, mapTask, partition, chunkIdx); err != nil {
				return err
			}
		}
		chunkIdx++
		raw := len(chunk)
		payload := chunk
		if compress && raw >= compressMinChunkBytes {
			st.comp.Reset()
			if st.fl == nil {
				fl, err := flate.NewWriter(&st.comp, flate.BestSpeed)
				if err != nil {
					return err
				}
				st.fl = fl
			} else {
				st.fl.Reset(&st.comp)
			}
			if _, err := st.fl.Write(chunk); err != nil {
				return err
			}
			if err := st.fl.Close(); err != nil {
				return err
			}
			if st.comp.Len() < raw {
				payload = st.comp.Bytes()
			}
		}
		var hdr [8]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(raw))
		binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(payload)))
		if _, err := bw.Write(hdr[:]); err != nil {
			return err
		}
		_, err := bw.Write(payload)
		return err
	}

	st.chunk = st.chunk[:0]
	for _, p := range pairs {
		st.chunk = mapreduce.AppendFrame(st.chunk, p)
		if len(st.chunk) >= chunkBytes {
			if err := emit(st.chunk); err != nil {
				return err
			}
			st.chunk = st.chunk[:0]
		}
	}
	if len(st.chunk) > 0 {
		if err := emit(st.chunk); err != nil {
			return err
		}
		st.chunk = st.chunk[:0]
	}
	var end [12]byte // zero rawLen + zero wireLen, then the record count
	binary.LittleEndian.PutUint32(end[8:12], uint32(len(pairs)))
	_, err := bw.Write(end[:])
	return err
}

// ---- client side ----

// shuffleStream is one pooled connection to a peer's shuffle listener.
type shuffleStream struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	comp []byte        // scratch for compressed payloads
	infl io.ReadCloser // reusable DEFLATE reader
}

// getStream pops an idle pooled connection to addr or dials a new one.
func (w *Worker) getStream(addr string) (*shuffleStream, error) {
	w.streamMu.Lock()
	if pool := w.streams[addr]; len(pool) > 0 {
		s := pool[len(pool)-1]
		w.streams[addr] = pool[:len(pool)-1]
		w.streamMu.Unlock()
		return s, nil
	}
	w.streamMu.Unlock()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, err
	}
	return &shuffleStream{
		conn: conn,
		br:   bufio.NewReaderSize(conn, 64<<10),
		bw:   bufio.NewWriterSize(conn, 64<<10),
	}, nil
}

// putStream returns a healthy connection to the pool (or closes it when
// the pool is full or the worker is shutting down).
func (w *Worker) putStream(addr string, s *shuffleStream) {
	w.streamMu.Lock()
	if w.streams != nil && len(w.streams[addr]) < maxIdleStreamsPerPeer {
		w.streams[addr] = append(w.streams[addr], s)
		w.streamMu.Unlock()
		return
	}
	w.streamMu.Unlock()
	s.conn.Close()
}

// closeStreams drops every pooled connection.
func (w *Worker) closeStreams() {
	w.streamMu.Lock()
	for _, pool := range w.streams {
		for _, s := range pool {
			s.conn.Close()
		}
	}
	w.streams = map[string][]*shuffleStream{}
	w.streamMu.Unlock()
}

// fetchStream retrieves one map-output partition over the streaming
// transport. The returned error is errShuffleMissing (permanent) when the
// peer reports the data gone; any other error is transient and worth a
// retry.
func (w *Worker) fetchStream(addr string, jobID, mapTask, partition int, o fetchOptions) ([]mapreduce.Pair, fetchStats, error) {
	var stats fetchStats
	s, err := w.getStream(addr)
	if err != nil {
		return nil, stats, err
	}
	pairs, stats, err := w.fetchOnStream(s, jobID, mapTask, partition, o)
	if err != nil {
		// Even a missing-partition reply leaves the stream at a request
		// boundary, but a pooled conn is cheap to rebuild — closing on
		// every error keeps the pool free of half-consumed streams.
		s.conn.Close()
		return nil, stats, err
	}
	w.putStream(addr, s)
	return pairs, stats, nil
}

func (w *Worker) fetchOnStream(s *shuffleStream, jobID, mapTask, partition int, o fetchOptions) ([]mapreduce.Pair, fetchStats, error) {
	var stats fetchStats
	s.conn.SetDeadline(time.Now().Add(shuffleIOTimeout))
	defer s.conn.SetDeadline(time.Time{})

	var req [21]byte
	binary.LittleEndian.PutUint32(req[0:4], shuffleMagic)
	binary.LittleEndian.PutUint32(req[4:8], uint32(jobID))
	binary.LittleEndian.PutUint32(req[8:12], uint32(mapTask))
	binary.LittleEndian.PutUint32(req[12:16], uint32(partition))
	binary.LittleEndian.PutUint32(req[16:20], uint32(o.chunkBytes))
	if o.compress {
		req[20] = shuffleFlagDeflate
	}
	if _, err := s.bw.Write(req[:]); err != nil {
		return nil, stats, err
	}
	if err := s.bw.Flush(); err != nil {
		return nil, stats, err
	}
	status, err := s.br.ReadByte()
	if err != nil {
		return nil, stats, err
	}
	if status != 0 {
		var n [4]byte
		if _, err := io.ReadFull(s.br, n[:]); err != nil {
			return nil, stats, err
		}
		msg := make([]byte, binary.LittleEndian.Uint32(n[:]))
		if _, err := io.ReadFull(s.br, msg); err != nil {
			return nil, stats, err
		}
		return nil, stats, fmt.Errorf("%w: %s", errShuffleMissing, msg)
	}

	var pairs []mapreduce.Pair
	for {
		var hdr [8]byte
		if _, err := io.ReadFull(s.br, hdr[:]); err != nil {
			return nil, stats, err
		}
		raw := int(binary.LittleEndian.Uint32(hdr[0:4]))
		wire := int(binary.LittleEndian.Uint32(hdr[4:8]))
		if raw == 0 && wire == 0 {
			var cnt [4]byte
			if _, err := io.ReadFull(s.br, cnt[:]); err != nil {
				return nil, stats, err
			}
			if got := int64(binary.LittleEndian.Uint32(cnt[:])); got != stats.records {
				return nil, stats, fmt.Errorf("rpcmr: shuffle stream decoded %d records, peer sent %d", stats.records, got)
			}
			return pairs, stats, nil
		}
		if wire > raw {
			return nil, stats, fmt.Errorf("rpcmr: corrupt shuffle chunk header (raw=%d wire=%d)", raw, wire)
		}
		// The chunk buffer is retained: decoded values sub-slice it, so
		// one allocation serves every record of the chunk.
		chunkBuf := make([]byte, raw)
		if wire == raw {
			if _, err := io.ReadFull(s.br, chunkBuf); err != nil {
				return nil, stats, err
			}
		} else {
			if cap(s.comp) < wire {
				s.comp = make([]byte, wire+wire/4)
			}
			comp := s.comp[:wire]
			if _, err := io.ReadFull(s.br, comp); err != nil {
				return nil, stats, err
			}
			if err := inflateExact(s, comp, chunkBuf); err != nil {
				return nil, stats, err
			}
		}
		before := len(pairs)
		pairs, err = mapreduce.DecodeFrames(pairs, chunkBuf)
		if err != nil {
			return nil, stats, err
		}
		stats.records += int64(len(pairs) - before)
		stats.rawBytes += int64(raw) + 8
		stats.wireBytes += int64(wire) + 8
	}
}

// inflateExact decompresses comp into dst, requiring the stream to yield
// exactly len(dst) bytes.
func inflateExact(s *shuffleStream, comp, dst []byte) error {
	src := bytes.NewReader(comp)
	if s.infl == nil {
		s.infl = flate.NewReader(src)
	} else if err := s.infl.(flate.Resetter).Reset(src, nil); err != nil {
		return err
	}
	if _, err := io.ReadFull(s.infl, dst); err != nil {
		return fmt.Errorf("rpcmr: corrupt compressed shuffle chunk: %w", err)
	}
	var one [1]byte
	if n, err := s.infl.Read(one[:]); n != 0 || (err != nil && err != io.EOF) {
		return fmt.Errorf("rpcmr: compressed shuffle chunk longer than advertised")
	}
	return nil
}
