//go:build amd64 && !purego

#include "textflag.h"

// AVX2 micro-kernels for matmul.go (f64, four columns per register) and
// f32.go (f32, eight). The rule they all keep: lanes run across output
// columns, every output combines its terms in the expression tree of the Go
// loop it replaces, a VMULPD/VMULPS and then a VADDPD/VADDPS per term with the
// operands in source order, never VFMADD, never a horizontal sum. Each lane
// therefore performs exactly the scalar operations of the Go loops, in the
// same order, and the results agree bit for bit.

// func cpuHasAVX2() bool
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JLT  done
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX // OSXSAVE | AVX
	CMPL CX, $0x18000000
	JNE  done
	XORL CX, CX
	XGETBV
	ANDL $6, AX // XCR0: the OS saves XMM and YMM state
	CMPL AX, $6
	JNE  done
	MOVL $7, AX
	XORL CX, CX
	CPUID
	SHRL $5, BX // leaf 7 EBX bit 5: AVX2
	ANDL $1, BX
	MOVB BX, ret+0(FP)
done:
	RET

// FOLD4 folds one quad of terms onto four columns at byte offset AX:
// acc = (((d + v0·b0) + v1·b1) + v2·b2) + v3·b3 with d in acc on entry.
#define FOLD4(acc, tmp, off) \
	VMULPD off(R11)(AX*1), Y0, tmp; \
	VADDPD tmp, acc, acc; \
	VMULPD off(R12)(AX*1), Y1, tmp; \
	VADDPD tmp, acc, acc; \
	VMULPD off(R13)(AX*1), Y2, tmp; \
	VADDPD tmp, acc, acc; \
	VMULPD off(R14)(AX*1), Y3, tmp; \
	VADDPD tmp, acc, acc

// func foldTermsAVX2(d, b *float64, ps *int, vs *float64, terms, cols, n int)
TEXT ·foldTermsAVX2(SB), NOSPLIT, $0-56
	MOVQ d+0(FP), DI
	MOVQ b+8(FP), SI
	MOVQ ps+16(FP), R8
	MOVQ vs+24(FP), R9
	MOVQ terms+32(FP), CX
	MOVQ cols+40(FP), DX
	MOVQ n+48(FP), R10
	SHLQ $3, R10 // bytes per b row
	SHLQ $3, DX  // bytes per pass over d

quad:
	CMPQ CX, $4
	JLT  single
	MOVQ 0(R8), R11
	MOVQ 8(R8), R12
	MOVQ 16(R8), R13
	MOVQ 24(R8), R14
	IMULQ R10, R11
	IMULQ R10, R12
	IMULQ R10, R13
	IMULQ R10, R14
	ADDQ SI, R11
	ADDQ SI, R12
	ADDQ SI, R13
	ADDQ SI, R14
	VBROADCASTSD 0(R9), Y0
	VBROADCASTSD 8(R9), Y1
	VBROADCASTSD 16(R9), Y2
	VBROADCASTSD 24(R9), Y3
	XORQ AX, AX
	MOVQ DX, BX
	SUBQ $64, BX // last offset at which eight columns remain
	JLT  quad4

quad8:
	VMOVUPD 0(DI)(AX*1), Y4
	VMOVUPD 32(DI)(AX*1), Y6
	FOLD4(Y4, Y5, 0)
	FOLD4(Y6, Y7, 32)
	VMOVUPD Y4, 0(DI)(AX*1)
	VMOVUPD Y6, 32(DI)(AX*1)
	ADDQ $64, AX
	CMPQ AX, BX
	JLE  quad8

quad4:
	CMPQ AX, DX
	JGE  quadnext
	VMOVUPD 0(DI)(AX*1), Y4
	FOLD4(Y4, Y5, 0)
	VMOVUPD Y4, 0(DI)(AX*1)

quadnext:
	ADDQ $32, R8
	ADDQ $32, R9
	SUBQ $4, CX
	JMP  quad

single:
	TESTQ CX, CX
	JZ    folded
	MOVQ  0(R8), R11
	IMULQ R10, R11
	ADDQ  SI, R11
	VBROADCASTSD 0(R9), Y0
	XORQ  AX, AX

single4:
	VMOVUPD 0(DI)(AX*1), Y4
	VMULPD  0(R11)(AX*1), Y0, Y5
	VADDPD  Y5, Y4, Y4
	VMOVUPD Y4, 0(DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, DX
	JLT     single4
	ADDQ    $8, R8
	ADDQ    $8, R9
	DECQ    CX
	JMP     single

folded:
	VZEROUPPER
	RET

// ROWS4 adds a[r,p]·bcol onto the running sums of four rows: base points at
// a[r0,p0], off is the byte offset of p within the block of four, and R8 /
// R11 hold one and three row strides.
#define ROWS4(base, off, bcol, s0, s1, s2, s3) \
	VBROADCASTSD off(base), Y12; \
	VBROADCASTSD off(base)(R8*1), Y13; \
	VBROADCASTSD off(base)(R8*2), Y14; \
	VBROADCASTSD off(base)(R11*1), Y15; \
	VMULPD bcol, Y12, Y12; \
	VMULPD bcol, Y13, Y13; \
	VMULPD bcol, Y14, Y14; \
	VMULPD bcol, Y15, Y15; \
	VADDPD Y12, s0, s0; \
	VADDPD Y13, s1, s1; \
	VADDPD Y14, s2, s2; \
	VADDPD Y15, s3, s3

// func transBTilesAVX2(dst, a, b *float64, k4, k, n, tiles int)
TEXT ·transBTilesAVX2(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ k4+24(FP), R15
	MOVQ k+32(FP), R8
	MOVQ n+40(FP), R9
	MOVQ tiles+48(FP), DX
	SHLQ $3, R15          // bytes of a row the vector loop consumes
	SHLQ $3, R8           // bytes per a / b row
	SHLQ $3, R9           // bytes per dst row
	LEAQ (R8)(R8*2), R11  // three a / b rows
	LEAQ (R9)(R9*2), R13  // three dst rows
	LEAQ (SI)(R8*4), R12  // a rows 4..7

tile:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ   R15, CX
	TESTQ  CX, CX
	JZ     store

block:
	// Four b rows × four p, transposed so each register holds one p across
	// the tile's four output columns.
	VMOVUPD (BX), Y8
	VMOVUPD (BX)(R8*1), Y9
	VMOVUPD (BX)(R8*2), Y10
	VMOVUPD (BX)(R11*1), Y11
	VUNPCKLPD Y9, Y8, Y12
	VUNPCKHPD Y9, Y8, Y13
	VUNPCKLPD Y11, Y10, Y14
	VUNPCKHPD Y11, Y10, Y15
	VPERM2F128 $0x20, Y14, Y12, Y8
	VPERM2F128 $0x20, Y15, Y13, Y9
	VPERM2F128 $0x31, Y14, Y12, Y10
	VPERM2F128 $0x31, Y15, Y13, Y11
	ROWS4(SI, 0, Y8, Y0, Y1, Y2, Y3)
	ROWS4(R12, 0, Y8, Y4, Y5, Y6, Y7)
	ROWS4(SI, 8, Y9, Y0, Y1, Y2, Y3)
	ROWS4(R12, 8, Y9, Y4, Y5, Y6, Y7)
	ROWS4(SI, 16, Y10, Y0, Y1, Y2, Y3)
	ROWS4(R12, 16, Y10, Y4, Y5, Y6, Y7)
	ROWS4(SI, 24, Y11, Y0, Y1, Y2, Y3)
	ROWS4(R12, 24, Y11, Y4, Y5, Y6, Y7)
	ADDQ $32, BX
	ADDQ $32, SI
	ADDQ $32, R12
	SUBQ $32, CX
	JNZ  block

store:
	LEAQ    (DI)(R9*4), AX
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, (DI)(R9*1)
	VMOVUPD Y2, (DI)(R9*2)
	VMOVUPD Y3, (DI)(R13*1)
	VMOVUPD Y4, (AX)
	VMOVUPD Y5, (AX)(R9*1)
	VMOVUPD Y6, (AX)(R9*2)
	VMOVUPD Y7, (AX)(R13*1)
	ADDQ $32, DI
	SUBQ R15, SI          // back to p = 0
	SUBQ R15, R12
	SUBQ R15, BX
	LEAQ (BX)(R8*4), BX   // next four b rows
	DECQ DX
	JNZ  tile
	VZEROUPPER
	RET

// PAIRS8 is eight independent multiply-then-add pairs, one per running sum.
#define PAIRS8 \
	VMULPD Y8, Y9, Y10; \
	VMULPD Y8, Y9, Y11; \
	VMULPD Y8, Y9, Y12; \
	VMULPD Y8, Y9, Y13; \
	VADDPD Y10, Y0, Y0; \
	VADDPD Y11, Y1, Y1; \
	VADDPD Y12, Y2, Y2; \
	VADDPD Y13, Y3, Y3; \
	VMULPD Y8, Y9, Y10; \
	VMULPD Y8, Y9, Y11; \
	VMULPD Y8, Y9, Y12; \
	VMULPD Y8, Y9, Y13; \
	VADDPD Y10, Y4, Y4; \
	VADDPD Y11, Y5, Y5; \
	VADDPD Y12, Y6, Y6; \
	VADDPD Y13, Y7, Y7

// func machinePeakAVX2(iters int)
TEXT ·machinePeakAVX2(SB), NOSPLIT, $0-8
	MOVQ iters+0(FP), CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9

peak:
	PAIRS8
	PAIRS8
	DECQ CX
	JNZ  peak
	VZEROUPPER
	RET

// QUAD32 folds four terms onto eight columns at byte offset off of the b rows
// at R12: acc = d + ((v0·b0 + v1·b1) + (v2·b2 + v3·b3)) with d in acc on
// entry, the pairing of the f32 lane's Go fold.
#define QUAD32(acc, t, u, w, off) \
	VMULPS off(R12), Y0, t; \
	VMULPS off(R12)(R11*1), Y1, u; \
	VADDPS u, t, t; \
	VMULPS off(R12)(R11*2), Y2, u; \
	VMULPS off(R12)(R14*1), Y3, w; \
	VADDPS w, u, u; \
	VADDPS u, t, t; \
	VADDPS t, acc, acc

// ONE32 folds a single term: acc = d + v0·b0.
#define ONE32(acc, t, off) \
	VMULPS off(R12), Y0, t; \
	VADDPS t, acc, acc

// func fold32AVX2(d, b, v *float32, rows, vrow, vterm, terms, cols, n int)
//
// Per row the columns go in blocks of 32 and then 8 whose running sums stay
// in registers over the whole reduction, so d is loaded and stored once.
TEXT ·fold32AVX2(SB), NOSPLIT, $0-72
	MOVQ d+0(FP), DI
	MOVQ v+16(FP), R9
	MOVQ rows+24(FP), BX
	MOVQ vrow+32(FP), R8
	MOVQ vterm+40(FP), R10
	MOVQ terms+48(FP), CX
	MOVQ n+64(FP), R11
	SHLQ $2, R8            // bytes from one row's values to the next row's
	SHLQ $2, R10           // bytes from one term's value to the next term's
	SHLQ $2, R11           // bytes per b / d row
	LEAQ (R11)(R11*2), R14 // three b rows
	LEAQ (R10)(R10*2), R15 // three value steps

row:
	MOVQ b+8(FP), SI
	MOVQ cols+56(FP), DX

block32:
	CMPQ DX, $32
	JLT  block8
	VMOVUPS 0(DI), Y4
	VMOVUPS 32(DI), Y5
	VMOVUPS 64(DI), Y6
	VMOVUPS 96(DI), Y7
	MOVQ SI, R12
	MOVQ R9, R13
	MOVQ CX, AX

quad32:
	CMPQ AX, $4
	JLT  one32
	VBROADCASTSS (R13), Y0
	VBROADCASTSS (R13)(R10*1), Y1
	VBROADCASTSS (R13)(R10*2), Y2
	VBROADCASTSS (R13)(R15*1), Y3
	QUAD32(Y4, Y8, Y9, Y10, 0)
	QUAD32(Y5, Y11, Y12, Y13, 32)
	QUAD32(Y6, Y8, Y9, Y10, 64)
	QUAD32(Y7, Y11, Y12, Y13, 96)
	LEAQ (R12)(R11*4), R12
	LEAQ (R13)(R10*4), R13
	SUBQ $4, AX
	JMP  quad32

one32:
	TESTQ AX, AX
	JZ    store32
	VBROADCASTSS (R13), Y0
	ONE32(Y4, Y8, 0)
	ONE32(Y5, Y9, 32)
	ONE32(Y6, Y10, 64)
	ONE32(Y7, Y11, 96)
	ADDQ R11, R12
	ADDQ R10, R13
	DECQ AX
	JMP  one32

store32:
	VMOVUPS Y4, 0(DI)
	VMOVUPS Y5, 32(DI)
	VMOVUPS Y6, 64(DI)
	VMOVUPS Y7, 96(DI)
	ADDQ $128, DI
	ADDQ $128, SI
	SUBQ $32, DX
	JMP  block32

block8:
	TESTQ DX, DX
	JZ    nextrow
	VMOVUPS (DI), Y4
	MOVQ SI, R12
	MOVQ R9, R13
	MOVQ CX, AX

quad8:
	CMPQ AX, $4
	JLT  one8
	VBROADCASTSS (R13), Y0
	VBROADCASTSS (R13)(R10*1), Y1
	VBROADCASTSS (R13)(R10*2), Y2
	VBROADCASTSS (R13)(R15*1), Y3
	QUAD32(Y4, Y8, Y9, Y10, 0)
	LEAQ (R12)(R11*4), R12
	LEAQ (R13)(R10*4), R13
	SUBQ $4, AX
	JMP  quad8

one8:
	TESTQ AX, AX
	JZ    store8
	VBROADCASTSS (R13), Y0
	ONE32(Y4, Y8, 0)
	ADDQ R11, R12
	ADDQ R10, R13
	DECQ AX
	JMP  one8

store8:
	VMOVUPS Y4, (DI)
	ADDQ $32, DI
	ADDQ $32, SI
	SUBQ $8, DX
	JMP  block8

nextrow:
	MOVQ cols+56(FP), DX
	SHLQ $2, DX
	SUBQ DX, DI
	ADDQ R11, DI // d's next row
	ADDQ R8, R9  // the next row's values
	DECQ BX
	JNZ  row
	VZEROUPPER
	RET

// tailmask32 holds the VMASKMOVPS masks of the last 3, 2 and 1 terms of a
// reduction at byte offsets 0, 4 and 8.
DATA tailmask32<>+0(SB)/4, $0xffffffff
DATA tailmask32<>+4(SB)/4, $0xffffffff
DATA tailmask32<>+8(SB)/4, $0xffffffff
DATA tailmask32<>+12(SB)/4, $0
DATA tailmask32<>+16(SB)/4, $0
DATA tailmask32<>+20(SB)/4, $0
GLOBL tailmask32<>(SB), RODATA|NOPTR, $24

// TRANSPOSE32 turns Y8..Y11, each four consecutive p of b row c in its low
// half and of row c+4 in its high half, into one p across the tile's eight
// output columns per register.
#define TRANSPOSE32 \
	VUNPCKLPS Y9, Y8, Y12; \
	VUNPCKHPS Y9, Y8, Y13; \
	VUNPCKLPS Y11, Y10, Y14; \
	VUNPCKHPS Y11, Y10, Y15; \
	VUNPCKLPD Y14, Y12, Y8; \
	VUNPCKHPD Y14, Y12, Y9; \
	VUNPCKLPD Y15, Y13, Y10; \
	VUNPCKHPD Y15, Y13, Y11

// ROWS4S adds a[r,p]·bcol onto one partial sum of each of four rows: SI points
// at a[r0,p0], off is the byte offset of p, R8 / R11 are one and three rows.
#define ROWS4S(off, bcol, s0, s1, s2, s3) \
	VBROADCASTSS off(SI), Y12; \
	VBROADCASTSS off(SI)(R8*1), Y13; \
	VBROADCASTSS off(SI)(R8*2), Y14; \
	VBROADCASTSS off(SI)(R11*1), Y15; \
	VMULPS bcol, Y12, Y12; \
	VMULPS bcol, Y13, Y13; \
	VMULPS bcol, Y14, Y14; \
	VMULPS bcol, Y15, Y15; \
	VADDPS Y12, s0, s0; \
	VADDPS Y13, s1, s1; \
	VADDPS Y14, s2, s2; \
	VADDPS Y15, s3, s3

// func transB32TilesAVX2(dst, a, b *float32, rowTiles, colTiles, k, n int)
//
// One tile is 4 rows × 8 columns; Y0..Y3 hold its even-p partial sums and
// Y4..Y7 its odd-p ones.
TEXT ·transB32TilesAVX2(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ rowTiles+24(FP), R10
	MOVQ k+40(FP), R8
	MOVQ n+48(FP), R9
	MOVQ R8, AX
	ANDQ $3, AX
	NEGQ AX
	LEAQ 12(AX*4), AX      // tailmask32 offset of the k%4 last terms; 12 when there are none
	SHLQ $2, R8            // bytes per a / b row
	SHLQ $2, R9            // bytes per dst row
	MOVQ R8, R15
	ANDQ $-16, R15         // bytes of a row the four-term blocks consume
	LEAQ (R8)(R8*2), R11   // three a / b rows
	LEAQ (R9)(R9*2), R13   // three dst rows

rowtile:
	MOVQ b+16(FP), BX
	MOVQ colTiles+32(FP), DX

tile:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	LEAQ  (BX)(R8*4), R12  // b rows 4..7
	MOVQ  R15, CX
	TESTQ CX, CX
	JZ    tail

block:
	VMOVUPS (BX), X8
	VMOVUPS (BX)(R8*1), X9
	VMOVUPS (BX)(R8*2), X10
	VMOVUPS (BX)(R11*1), X11
	VINSERTF128 $1, (R12), Y8, Y8
	VINSERTF128 $1, (R12)(R8*1), Y9, Y9
	VINSERTF128 $1, (R12)(R8*2), Y10, Y10
	VINSERTF128 $1, (R12)(R11*1), Y11, Y11
	TRANSPOSE32
	ROWS4S(0, Y8, Y0, Y1, Y2, Y3)
	ROWS4S(4, Y9, Y4, Y5, Y6, Y7)
	ROWS4S(8, Y10, Y0, Y1, Y2, Y3)
	ROWS4S(12, Y11, Y4, Y5, Y6, Y7)
	ADDQ $16, BX
	ADDQ $16, R12
	ADDQ $16, SI
	SUBQ $16, CX
	JNZ  block

tail:
	CMPQ AX, $12
	JEQ  store
	// The k%4 last terms: masked loads read nothing past the end of a b row.
	LEAQ tailmask32<>(SB), CX
	VMOVDQU (CX)(AX*1), X12
	VMASKMOVPS (BX), X12, X8
	VMASKMOVPS (BX)(R8*1), X12, X9
	VMASKMOVPS (BX)(R8*2), X12, X10
	VMASKMOVPS (BX)(R11*1), X12, X11
	VMASKMOVPS (R12), X12, X13
	VMASKMOVPS (R12)(R8*1), X12, X14
	VINSERTF128 $1, X13, Y8, Y8
	VINSERTF128 $1, X14, Y9, Y9
	VMASKMOVPS (R12)(R8*2), X12, X13
	VMASKMOVPS (R12)(R11*1), X12, X14
	VINSERTF128 $1, X13, Y10, Y10
	VINSERTF128 $1, X14, Y11, Y11
	TRANSPOSE32
	ROWS4S(0, Y8, Y0, Y1, Y2, Y3)
	CMPQ AX, $4
	JGT  store
	ROWS4S(4, Y9, Y4, Y5, Y6, Y7)
	TESTQ AX, AX
	JNZ  store
	ROWS4S(8, Y10, Y0, Y1, Y2, Y3)

store:
	VADDPS Y4, Y0, Y0
	VADDPS Y5, Y1, Y1
	VADDPS Y6, Y2, Y2
	VADDPS Y7, Y3, Y3
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, (DI)(R9*1)
	VMOVUPS Y2, (DI)(R9*2)
	VMOVUPS Y3, (DI)(R13*1)
	ADDQ $32, DI
	SUBQ R15, SI           // back to p = 0
	SUBQ R15, BX
	LEAQ (BX)(R8*8), BX    // next eight b rows
	DECQ DX
	JNZ  tile
	MOVQ colTiles+32(FP), DX
	SHLQ $5, DX
	SUBQ DX, DI
	LEAQ (DI)(R9*4), DI    // next four dst rows
	LEAQ (SI)(R8*4), SI    // next four a rows
	DECQ R10
	JNZ  rowtile
	VZEROUPPER
	RET

// PAIRS8S is PAIRS8 on eight f32 lanes.
#define PAIRS8S \
	VMULPS Y8, Y9, Y10; \
	VMULPS Y8, Y9, Y11; \
	VMULPS Y8, Y9, Y12; \
	VMULPS Y8, Y9, Y13; \
	VADDPS Y10, Y0, Y0; \
	VADDPS Y11, Y1, Y1; \
	VADDPS Y12, Y2, Y2; \
	VADDPS Y13, Y3, Y3; \
	VMULPS Y8, Y9, Y10; \
	VMULPS Y8, Y9, Y11; \
	VMULPS Y8, Y9, Y12; \
	VMULPS Y8, Y9, Y13; \
	VADDPS Y10, Y4, Y4; \
	VADDPS Y11, Y5, Y5; \
	VADDPS Y12, Y6, Y6; \
	VADDPS Y13, Y7, Y7

// func machinePeak32AVX2(iters int)
TEXT ·machinePeak32AVX2(SB), NOSPLIT, $0-8
	MOVQ iters+0(FP), CX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	VXORPS Y8, Y8, Y8
	VXORPS Y9, Y9, Y9

peak32:
	PAIRS8S
	PAIRS8S
	DECQ CX
	JNZ  peak32
	VZEROUPPER
	RET
