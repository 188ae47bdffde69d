package federate_test

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"spire/internal/core"
	"spire/internal/federate"
	"spire/internal/model"
	"spire/internal/sim"
	"spire/internal/stream"
)

// countBomb is a 17-byte frame of type typ whose epoch/count header
// claims 2^32-1 events.
func countBomb(typ stream.FrameType) []byte {
	b := binary.BigEndian.AppendUint32(nil, 13)
	b = append(b, byte(typ))
	b = binary.BigEndian.AppendUint64(b, 7)
	return binary.BigEndian.AppendUint32(b, 0xFFFFFFFF)
}

// sendRaw dials addr, writes raw bytes, half-closes, and returns what
// the peer sent back before closing its side.
func sendRaw(t *testing.T, addr string, raw []byte) []byte {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Write(raw); err != nil {
		t.Fatal(err)
	}
	conn.(*net.TCPConn).CloseWrite()
	reply, err := io.ReadAll(conn)
	if err != nil {
		t.Fatalf("coordinator kept the connection open: %v", err)
	}
	return reply
}

// TestHostileFirstFrameRejected: raw clients whose first frame is a
// count bomb (every event-carrying type, plus the retired row types) or a
// maximal length prefix with no body are dropped, and the coordinator
// goes on to serve a normal 2-zone run byte-identical to the in-process
// reference.
func TestHostileFirstFrameRejected(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster test is not short")
	}
	cfg := clusterSimConfig()
	cfg.Duration = 300
	want := runInProcessBatchFederated(t, cfg, core.Level2, 2)
	got := runNetworkedCluster(t, cfg, core.Level2, zoneBatchFeed, 2, -1, model.EpochNone, 0, func(addr string) {
		hostile := [][]byte{binary.BigEndian.AppendUint32(nil, stream.MaxFramePayload)}
		for _, typ := range []stream.FrameType{stream.FrameEpochCols, stream.FrameFinCols, 3, 5} {
			hostile = append(hostile, countBomb(typ))
		}
		for _, raw := range hostile {
			if reply := sendRaw(t, addr, raw); len(reply) != 0 {
				t.Errorf("hostile frame %x answered with %x", raw, reply)
			}
		}
	})
	if !slices.Equal(want, got) {
		diffCanonical(t, "cluster after hostile frames", want, got)
		t.Fatalf("streams differ only in order: %d events", len(got))
	}
}

// oldHello is a Hello from an older protocol revision: caps is the
// capability word where the version now sits, or -1 for the oldest
// revision, which sent no word at all.
func oldHello(zone int, caps int64) []byte {
	body := []byte{byte(stream.FrameHello)}
	body = binary.BigEndian.AppendUint32(body, uint32(zone))
	none := model.EpochNone
	body = binary.BigEndian.AppendUint64(body, uint64(none))
	if caps >= 0 {
		body = binary.BigEndian.AppendUint32(body, uint32(caps))
	}
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
}

// emptySource has no epochs.
type emptySource struct{}

func (emptySource) NextBatch() (*model.Batch, error) { return nil, io.EOF }

// TestHelloVersionMismatch: the coordinator refuses a Hello from an
// older revision — short body, caps 0, caps 3 — answering with its own
// version and closing without connecting the zone; and a worker facing a
// coordinator of another version returns ErrProtocolVersion after one
// handshake instead of redialing.
func TestHelloVersionMismatch(t *testing.T) {
	coord, err := federate.NewCoordinator(federate.CoordinatorConfig{Zones: 1})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- coord.Serve(ctx, ln) }()
	defer func() {
		cancel()
		<-served
	}()
	for _, caps := range []int64{-1, 0, 3} {
		reply := sendRaw(t, ln.Addr().String(), oldHello(0, caps))
		ack, err := stream.AppendFrame(nil, &stream.Frame{Type: stream.FrameHelloAck, Epoch: model.EpochNone})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(reply, ack) {
			t.Errorf("caps %d: coordinator replied %x, want a bare HelloAck %x", caps, reply, ack)
		}
	}
	if z := coord.Status().Zones[0]; z.Connects != 0 {
		t.Errorf("old-revision hellos connected the zone %d times", z.Connects)
	}

	// A coordinator of the previous revision: it reads the Hello and acks
	// with the capability intersection in the version word.
	old, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	go func() {
		for {
			conn, err := old.Accept()
			if err != nil {
				return
			}
			stream.ReadFrame(conn) //nolint:errcheck — any hello
			none := model.EpochNone
			ack := []byte{0, 0, 0, 13, byte(stream.FrameHelloAck)}
			ack = binary.BigEndian.AppendUint64(ack, uint64(none))
			conn.Write(binary.BigEndian.AppendUint32(ack, 3))
			conn.Close()
		}
	}()
	s, err := sim.New(clusterSimConfig())
	if err != nil {
		t.Fatal(err)
	}
	var dials atomic.Int64
	w, err := federate.NewWorker(federate.WorkerConfig{
		Substrate: substrateFor(t, s.Readers(), s.Locations(), core.Level1),
		Dial: func(ctx context.Context) (net.Conn, error) {
			dials.Add(1)
			var d net.Dialer
			return d.DialContext(ctx, "tcp", old.Addr().String())
		},
		BaseBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	rctx, rcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer rcancel()
	if err := w.RunBatches(rctx, emptySource{}); !errors.Is(err, stream.ErrProtocolVersion) {
		t.Fatalf("RunBatches: %v, want ErrProtocolVersion", err)
	}
	if n := dials.Load(); n != 1 {
		t.Errorf("worker dialed %d times, want exactly one handshake", n)
	}
}
