// Command spiredecompress converts a level-2 compressed event stream into
// the equivalent level-1 stream — the standalone form of the on-demand
// decompression routine of the paper's Section V-C, suitable for plugging
// in front of any event processor that expects complete per-object
// location information.
//
//	spire -simulate -level 2 -o l2.bin
//	spiredecompress -i l2.bin -o l1.bin
//	spirequery -events l1.bin -summary
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"spire/internal/compress"
	"spire/internal/event"
	"spire/internal/model"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "spiredecompress:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		in       = flag.String("i", "", "level-2 stream file ('-' for stdin)")
		out      = flag.String("o", "", "level-1 output file (default stdout)")
		closeAt  = flag.Int64("close", -1, "close intervals still open at this epoch (default: leave open)")
		validate = flag.Bool("validate", true, "verify the output stream is well-formed")
	)
	flag.Parse()
	if *in == "" {
		return fmt.Errorf("-i is required")
	}

	var src io.Reader = os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		src = f
	}
	var dst io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		dst = f
	}

	r := event.NewReader(src)
	w := event.NewWriter(dst)
	dec := compress.NewDecompressor()
	var all []event.Event
	var inBytes int64
	emit := func(evs []event.Event) error {
		for _, e := range evs {
			if err := w.Write(e); err != nil {
				return err
			}
		}
		if *validate {
			all = append(all, evs...)
		}
		return nil
	}
	// Batch by epoch: the decompressor's alignment pass needs whole
	// epochs.
	var batch []event.Event
	var batchTime model.Epoch = model.EpochNone
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		outEvs, err := dec.Step(batch)
		if err != nil {
			return err
		}
		batch = batch[:0]
		return emit(outEvs)
	}
	for {
		e, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		inBytes += int64(event.WireSize(e))
		t := e.Emitted()
		if t != batchTime {
			if err := flush(); err != nil {
				return err
			}
			batchTime = t
		}
		batch = append(batch, e)
	}
	if err := flush(); err != nil {
		return err
	}
	if *closeAt >= 0 {
		if err := emit(dec.Close(model.Epoch(*closeAt))); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if *validate {
		if err := event.CheckWellFormed(all, *closeAt >= 0); err != nil {
			return fmt.Errorf("output malformed: %w", err)
		}
	}
	fmt.Fprintf(os.Stderr, "spiredecompress: %d B level-2 in -> %d events, %d B level-1 out\n",
		inBytes, w.Count(), w.Bytes())
	return nil
}
