package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestMapOrderedResults(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		got, err := Map(workers, 50, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != 50 {
			t.Fatalf("workers=%d: len = %d", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: got[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapFirstErrorByIndex(t *testing.T) {
	errA := errors.New("a")
	errB := errors.New("b")
	_, err := Map(4, 100, func(i int) (int, error) {
		switch i {
		case 7:
			return 0, errA
		case 3:
			return 0, errB
		}
		return i, nil
	})
	if !errors.Is(err, errB) {
		t.Errorf("err = %v, want lowest-index error %v", err, errB)
	}
}

func TestMapEmptyAndNil(t *testing.T) {
	if out, err := Map(4, 0, func(int) (int, error) { return 1, nil }); err != nil || out != nil {
		t.Errorf("n=0: out=%v err=%v", out, err)
	}
	if _, err := Map[int](4, 3, nil); err == nil {
		t.Error("nil fn accepted")
	}
}

func TestMapRunsEveryJobDespiteError(t *testing.T) {
	var ran atomic.Int64
	_, err := Map(3, 40, func(i int) (int, error) {
		ran.Add(1)
		if i == 0 {
			return 0, fmt.Errorf("boom")
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if ran.Load() != 40 {
		t.Errorf("ran %d of 40 jobs", ran.Load())
	}
}

func TestWorkersClamp(t *testing.T) {
	if got := Workers(0, 100); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0, 100) = %d, want GOMAXPROCS", got)
	}
	if got := Workers(16, 3); got != 3 {
		t.Errorf("Workers(16, 3) = %d, want 3", got)
	}
	if got := Workers(-5, 2); got < 1 || got > 2 {
		t.Errorf("Workers(-5, 2) = %d outside [1, 2]", got)
	}
}
