package client

import (
	"bufio"
	"context"
	"errors"
	"io"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"scdb/internal/model"
	"scdb/internal/server"
)

// script is how a test follows a scriptedServer: held receives the
// request id of every stalled or dropping statement, and the server waits
// on captured after each before it goes on; late receives one value for
// every stalled statement's answer, once it is written.
type script struct {
	held     chan uint32
	captured chan struct{}
	late     chan struct{}
}

// scriptedServer is a v2 peer whose answers a statement's text scripts:
// "echo T" answers a one-row batch holding T after a short random delay,
// "stall T" answers T only after the client's deadlineGrace has passed,
// "hang T" answers nothing until the client cancels it, then the typed
// canceled error, and "drop T" closes the connection. A ping answers
// stamp 1.
func scriptedServer(t *testing.T, sc script) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go serveScript(nc, sc)
		}
	}()
	return ln.Addr().String()
}

func serveScript(nc net.Conn, sc script) {
	defer nc.Close()
	br := bufio.NewReader(nc)
	var hello [8]byte
	if _, err := io.ReadFull(br, hello[:]); err != nil || server.WriteServerHello(nc, server.ProtoV2) != nil {
		return
	}
	var wmu sync.Mutex
	write := func(encode func(e *server.V2Enc) []byte) {
		e := server.GetV2Enc()
		defer e.Release()
		wmu.Lock()
		defer wmu.Unlock()
		nc.Write(encode(e))
	}
	answer := func(id uint32, token string) {
		write(func(e *server.V2Enc) []byte {
			server.EncodeV2RowBatch(e, id, [][]model.Value{{model.String(token)}})
			return server.EncodeV2QueryResult(e, id, []string{"v"}, nil)
		})
	}
	var hmu sync.Mutex
	hanging := map[uint32]bool{}
	for {
		f, err := server.ReadV2Frame(br, 0)
		if err != nil {
			return
		}
		switch f.Op {
		case server.V2OpPing:
			write(func(e *server.V2Enc) []byte { return server.EncodeV2PingResult(e, f.ID, 1) })
		case server.V2OpCancel:
			hmu.Lock()
			hung := hanging[f.ID]
			delete(hanging, f.ID)
			hmu.Unlock()
			if hung {
				write(func(e *server.V2Enc) []byte { return server.EncodeV2Error(e, f.ID, server.CodeCanceled, "canceled") })
			}
		case server.V2OpQuery:
			q, _, err := server.DecodeV2Query(f.Payload)
			if err != nil {
				return
			}
			verb, token, _ := strings.Cut(q, " ")
			switch verb {
			case "echo":
				go func() {
					time.Sleep(time.Duration(rand.Intn(2000)) * time.Microsecond)
					answer(f.ID, token)
				}()
			case "stall":
				sc.held <- f.ID
				<-sc.captured
				go func() {
					time.Sleep(deadlineGrace + 300*time.Millisecond)
					answer(f.ID, token)
					sc.late <- struct{}{}
				}()
			case "hang":
				hmu.Lock()
				hanging[f.ID] = true
				hmu.Unlock()
			case "drop":
				sc.held <- f.ID
				<-sc.captured
				return
			}
		}
	}
}

// TestReusedCallsNeverCrossCallers: on one connection, ordinary calls,
// pings, calls abandoned past deadlineGrace on a stalled statement and
// calls canceled with a cancel frame run together, and the connection
// reuses its completed calls all the while. Every answer reaches its own
// caller, every abandoned and canceled call fails as it should, and no
// call that did not complete — forgotten past its grace, which the
// reader may still hold, or failed when the connection broke — is ever
// recycled. Run it under -race.
func TestReusedCallsNeverCrossCallers(t *testing.T) {
	const stallers = 4
	// late holds every stalled answer's signal, so no answer goroutine
	// outlives a test that stops early.
	sc := script{held: make(chan uint32), captured: make(chan struct{}), late: make(chan struct{}, stallers)}
	c, err := Dial(scriptedServer(t, sc))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Capture each held call while it is in flight: it is registered
	// before its frame goes out, and stays until its grace runs out or the
	// connection breaks.
	var fmu sync.Mutex
	forgotten := map[*v2call]bool{}
	watched := make(chan struct{})
	go func() {
		defer close(watched)
		for id := range sc.held {
			c.v2.pmu.Lock()
			ca := c.v2.calls[id]
			c.v2.pmu.Unlock()
			if ca == nil {
				t.Errorf("held call %d is not registered while in flight", id)
			} else {
				fmu.Lock()
				forgotten[ca] = true
				fmu.Unlock()
			}
			sc.captured <- struct{}{}
		}
	}()
	ctx := context.Background()
	var wg sync.WaitGroup
	var stalled sync.WaitGroup
	for g := 0; g < stallers; g++ {
		stalled.Add(1)
		go func() {
			defer stalled.Done()
			sctx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
			defer cancel()
			_, err := c.QueryCtx(sctx, "stall s"+strconv.Itoa(g))
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("stalled call %d: %v, want the deadline", g, err)
			}
		}()
	}
	stop := make(chan struct{})
	go func() { stalled.Wait(); close(stop) }()
	running := func() bool {
		select {
		case <-stop:
			return false
		default:
			return true
		}
	}
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; running(); i++ {
				token := "e" + strconv.Itoa(g) + "-" + strconv.Itoa(i)
				rows, err := c.QueryCtx(ctx, "echo "+token)
				if err != nil {
					t.Errorf("echo %s: %v", token, err)
					return
				}
				if len(rows.Data) != 1 || rows.Data[0][0] != token || len(rows.Columns) != 1 || rows.Columns[0] != "v" {
					t.Errorf("echo %s answered %v %v", token, rows.Columns, rows.Data)
					return
				}
			}
		}()
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; running(); i++ {
				token := "v" + strconv.Itoa(g) + "-" + strconv.Itoa(i)
				v, err := c.QueryValuesCtx(ctx, "echo "+token)
				if err != nil {
					t.Errorf("echo %s: %v", token, err)
					return
				}
				if s, _ := v.Rows[0][0].AsString(); len(v.Rows) != 1 || s != token {
					t.Errorf("echo %s answered %d rows, first %q", token, len(v.Rows), s)
					return
				}
				if _, err := c.PingCSN(); err != nil {
					t.Errorf("ping: %v", err)
					return
				}
			}
		}()
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; running(); i++ {
				cctx, cancel := context.WithCancel(ctx)
				time.AfterFunc(time.Duration(rand.Intn(3000))*time.Microsecond, cancel)
				_, err := c.QueryCtx(cctx, "hang h"+strconv.Itoa(g)+"-"+strconv.Itoa(i))
				cancel()
				if !errors.Is(err, context.Canceled) {
					t.Errorf("canceled call: %v, want canceled", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	// The stalled statements' late answers go out before any answer to
	// the calls below; the connection must still answer its own callers.
	for range stallers {
		<-sc.late
	}
	for i := 0; i < 20; i++ {
		token := "after-" + strconv.Itoa(i)
		if rows, err := c.Query("echo " + token); err != nil || rows.Data[0][0] != token {
			t.Fatalf("echo %s after the stalls: %v %v", token, rows, err)
		}
	}
	// The last call breaks the connection: the reader fails it.
	if _, err := c.Query("drop d"); err == nil {
		t.Fatal("a call on a dropped connection answered")
	}
	close(sc.held)
	<-watched

	c.v2.pmu.Lock()
	defer c.v2.pmu.Unlock()
	if len(forgotten) != stallers+1 {
		t.Fatalf("captured %d held calls, want %d", len(forgotten), stallers+1)
	}
	if len(c.v2.free) == 0 {
		t.Error("no completed call was recycled")
	}
	for _, ca := range c.v2.free {
		if forgotten[ca] {
			t.Errorf("call %d, which never completed, is on the free list", ca.id)
		}
	}
}
