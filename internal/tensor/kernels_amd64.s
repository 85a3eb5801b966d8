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

// The elementwise family (elementwise.go). One YMM register is eight f32 or
// four f64 iterations of the Go loop side by side; where an operation has an
// operand order the bits depend on — the running value first in an add, the
// candidate first in a maximum — it is the order of the Go expression.

// func add32AVX2(dst, src *float32, n int)
TEXT ·add32AVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	SHLQ $2, CX
	XORQ AX, AX

add32:
	VMOVUPS (DI)(AX*1), Y0
	VADDPS  (SI)(AX*1), Y0, Y0
	VMOVUPS Y0, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     add32
	VZEROUPPER
	RET

// func add64AVX2(dst, src *float64, n int)
TEXT ·add64AVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	SHLQ $3, CX
	XORQ AX, AX

add64:
	VMOVUPD (DI)(AX*1), Y0
	VADDPD  (SI)(AX*1), Y0, Y0
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     add64
	VZEROUPPER
	RET

// func addScalar32AVX2(dst *float32, v float32, n int)
TEXT ·addScalar32AVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	VBROADCASTSS v+8(FP), Y1
	MOVQ n+16(FP), CX
	SHLQ $2, CX
	XORQ AX, AX

adds32:
	VMOVUPS (DI)(AX*1), Y0
	VADDPS  Y1, Y0, Y0
	VMOVUPS Y0, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     adds32
	VZEROUPPER
	RET

// func addScalar64AVX2(dst *float64, v float64, n int)
TEXT ·addScalar64AVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	VBROADCASTSD v+8(FP), Y1
	MOVQ n+16(FP), CX
	SHLQ $3, CX
	XORQ AX, AX

adds64:
	VMOVUPD (DI)(AX*1), Y0
	VADDPD  Y1, Y0, Y0
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     adds64
	VZEROUPPER
	RET

// func axpy32AVX2(dst, src *float32, a float32, n int)
TEXT ·axpy32AVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	VBROADCASTSS a+16(FP), Y2
	MOVQ n+24(FP), CX
	SHLQ $2, CX
	XORQ AX, AX

axpy32:
	VMULPS  (SI)(AX*1), Y2, Y1
	VMOVUPS (DI)(AX*1), Y0
	VADDPS  Y1, Y0, Y0
	VMOVUPS Y0, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     axpy32
	VZEROUPPER
	RET

// func axpy64AVX2(dst, src *float64, a float64, n int)
TEXT ·axpy64AVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	VBROADCASTSD a+16(FP), Y2
	MOVQ n+24(FP), CX
	SHLQ $3, CX
	XORQ AX, AX

axpy64:
	VMULPD  (SI)(AX*1), Y2, Y1
	VMOVUPD (DI)(AX*1), Y0
	VADDPD  Y1, Y0, Y0
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     axpy64
	VZEROUPPER
	RET

// func axpyDiff64AVX2(dst, x, y *float64, a float64, n int)
TEXT ·axpyDiff64AVX2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DX
	VBROADCASTSD a+24(FP), Y2
	MOVQ n+32(FP), CX
	SHLQ $3, CX
	XORQ AX, AX

axpydiff:
	VMOVUPD (SI)(AX*1), Y1
	VSUBPD  (DX)(AX*1), Y1, Y1
	VMULPD  Y1, Y2, Y1
	VMOVUPD (DI)(AX*1), Y0
	VADDPD  Y1, Y0, Y0
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     axpydiff
	VZEROUPPER
	RET

// func relu32AVX2(dst, src *float32, n int)
//
// MAXPS returns its second source unless the first is greater: with +0 second,
// −x, ±0 and every NaN become +0 and a positive x (+Inf included) is kept.
TEXT ·relu32AVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	SHLQ $2, CX
	VXORPS Y1, Y1, Y1
	XORQ AX, AX

relu32:
	VMOVUPS (SI)(AX*1), Y0
	VMAXPS  Y1, Y0, Y0
	VMOVUPS Y0, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     relu32
	VZEROUPPER
	RET

// func relu64AVX2(dst, src *float64, n int)
TEXT ·relu64AVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	SHLQ $3, CX
	VXORPD Y1, Y1, Y1
	XORQ AX, AX

relu64:
	VMOVUPD (SI)(AX*1), Y0
	VMAXPD  Y1, Y0, Y0
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     relu64
	VZEROUPPER
	RET

// func reluGrad32AVX2(dst, grad, fwd *float32, n int)
//
// Predicate 0x1E is greater-than, ordered, quiet: the Go >.
TEXT ·reluGrad32AVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ fwd+16(FP), DX
	MOVQ n+24(FP), CX
	SHLQ $2, CX
	VXORPS Y1, Y1, Y1
	XORQ AX, AX

relugrad32:
	VMOVUPS (DX)(AX*1), Y0
	VCMPPS  $0x1E, Y1, Y0, Y0
	VANDPS  (SI)(AX*1), Y0, Y0
	VMOVUPS Y0, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     relugrad32
	VZEROUPPER
	RET

// func reluGrad64AVX2(dst, grad, fwd *float64, n int)
TEXT ·reluGrad64AVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ fwd+16(FP), DX
	MOVQ n+24(FP), CX
	SHLQ $3, CX
	VXORPD Y1, Y1, Y1
	XORQ AX, AX

relugrad64:
	VMOVUPD (DX)(AX*1), Y0
	VCMPPD  $0x1E, Y1, Y0, Y0
	VANDPD  (SI)(AX*1), Y0, Y0
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     relugrad64
	VZEROUPPER
	RET

// POOLCAND offers one candidate to the running maximum: where cand > best
// (ordered, strict) the value and the index move, else both stay — the Go
// loop's `if c > best`. MAXP* returns its second source when the first is not
// greater or either is a NaN, so best is the second source.
#define POOLCAND(CMP, MAX, BLENDV, cand, idx, best, bestidx, m) \
	CMP    $0x1E, best, cand, m; \
	MAX    best, cand, best; \
	BLENDV m, idx, bestidx, bestidx

// poolidx32 is the order in which VSHUFPS leaves the eight even (or odd)
// elements of two adjacent registers, as offsets from the first; poolidx64 the
// order VUNPCK{L,H}PD leaves four, as 64-bit offsets; poolnarrow64 the VPERMD
// selector that puts the low halves of that order's indices in output order.
DATA poolidx32<>+0(SB)/4, $0
DATA poolidx32<>+4(SB)/4, $2
DATA poolidx32<>+8(SB)/4, $8
DATA poolidx32<>+12(SB)/4, $10
DATA poolidx32<>+16(SB)/4, $4
DATA poolidx32<>+20(SB)/4, $6
DATA poolidx32<>+24(SB)/4, $12
DATA poolidx32<>+28(SB)/4, $14
GLOBL poolidx32<>(SB), RODATA|NOPTR, $32

DATA poolidx64<>+0(SB)/8, $0
DATA poolidx64<>+8(SB)/8, $4
DATA poolidx64<>+16(SB)/8, $2
DATA poolidx64<>+24(SB)/8, $6
GLOBL poolidx64<>(SB), RODATA|NOPTR, $32

DATA poolnarrow64<>+0(SB)/4, $0
DATA poolnarrow64<>+4(SB)/4, $4
DATA poolnarrow64<>+8(SB)/4, $2
DATA poolnarrow64<>+12(SB)/4, $6
DATA poolnarrow64<>+16(SB)/4, $0
DATA poolnarrow64<>+20(SB)/4, $0
DATA poolnarrow64<>+24(SB)/4, $0
DATA poolnarrow64<>+28(SB)/4, $0
GLOBL poolnarrow64<>(SB), RODATA|NOPTR, $32

// poolidx stride-2 offsets in output order, for the half-width steps.
DATA poolhalf32<>+0(SB)/4, $0
DATA poolhalf32<>+4(SB)/4, $2
DATA poolhalf32<>+8(SB)/4, $4
DATA poolhalf32<>+12(SB)/4, $6
GLOBL poolhalf32<>(SB), RODATA|NOPTR, $16

DATA poolhalf64<>+0(SB)/8, $0
DATA poolhalf64<>+8(SB)/8, $2
GLOBL poolhalf64<>(SB), RODATA|NOPTR, $16

// func maxPool32AVX2(out *float32, arg *int32, in *float32, orows, w, cols int)
//
// Eight outputs a step: sixteen floats of the top row and of the bottom row,
// split by VSHUFPS into the four window corners, candidates taken in
// top-left, top-right, bottom-left, bottom-right order, and one VPERMPD that
// undoes the split's lane order; then four outputs in XMM registers, whose
// split is already in order.
TEXT ·maxPool32AVX2(SB), NOSPLIT, $0-48
	MOVQ out+0(FP), DI
	MOVQ arg+8(FP), R8
	MOVQ in+16(FP), SI
	MOVQ orows+24(FP), BX
	MOVQ w+32(FP), R9
	MOVQ cols+40(FP), R10
	VMOVDQU  poolidx32<>(SB), Y12
	VMOVDQU  poolhalf32<>(SB), X13
	VPCMPEQD Y14, Y14, Y14
	VPSRLD   $31, Y14, Y14 // 1 in every lane
	MOVQ     R9, AX
	VMOVD    AX, X15
	VPBROADCASTD X15, Y15  // w in every lane
	XORQ R11, R11          // flat index of the row pair's first element
	LEAQ (R9*4), R12       // bytes per input row
	LEAQ (R9*2), R13       // bytes per output (and index) row

pool32row:
	LEAQ (SI)(R12*1), DX   // the bottom row
	XORQ CX, CX            // output column

pool32y:
	LEAQ 8(CX), AX
	CMPQ AX, R10
	JGT  pool32x
	VMOVUPS (SI)(CX*8), Y0
	VMOVUPS 32(SI)(CX*8), Y1
	VMOVUPS (DX)(CX*8), Y2
	VMOVUPS 32(DX)(CX*8), Y3
	VSHUFPS $0x88, Y1, Y0, Y4 // top-left
	VSHUFPS $0xDD, Y1, Y0, Y5 // top-right
	VSHUFPS $0x88, Y3, Y2, Y6 // bottom-left
	VSHUFPS $0xDD, Y3, Y2, Y7 // bottom-right
	LEAQ    (R11)(CX*2), AX
	VMOVD   AX, X8
	VPBROADCASTD X8, Y8
	VPADDD  Y12, Y8, Y11      // top-left indices: the running argmax
	VPADDD  Y14, Y11, Y8
	POOLCAND(VCMPPS, VMAXPS, VBLENDVPS, Y5, Y8, Y4, Y11, Y10)
	VPADDD  Y15, Y8, Y8
	VPSUBD  Y14, Y8, Y9
	POOLCAND(VCMPPS, VMAXPS, VBLENDVPS, Y6, Y9, Y4, Y11, Y10)
	POOLCAND(VCMPPS, VMAXPS, VBLENDVPS, Y7, Y8, Y4, Y11, Y10)
	VPERMPD $0xD8, Y4, Y4
	VMOVUPS Y4, (DI)(CX*4)
	TESTQ   R8, R8
	JZ      pool32ynext
	VPERMQ  $0xD8, Y11, Y11
	VMOVDQU Y11, (R8)(CX*4)

pool32ynext:
	ADDQ $8, CX
	JMP  pool32y

pool32x:
	CMPQ CX, R10
	JGE  pool32next
	VMOVUPS (SI)(CX*8), X0
	VMOVUPS 16(SI)(CX*8), X1
	VMOVUPS (DX)(CX*8), X2
	VMOVUPS 16(DX)(CX*8), X3
	VSHUFPS $0x88, X1, X0, X4
	VSHUFPS $0xDD, X1, X0, X5
	VSHUFPS $0x88, X3, X2, X6
	VSHUFPS $0xDD, X3, X2, X7
	LEAQ    (R11)(CX*2), AX
	VMOVD   AX, X8
	VPBROADCASTD X8, X8
	VPADDD  X13, X8, X11
	VPADDD  X14, X11, X8
	POOLCAND(VCMPPS, VMAXPS, VBLENDVPS, X5, X8, X4, X11, X10)
	VPADDD  X15, X8, X8
	VPSUBD  X14, X8, X9
	POOLCAND(VCMPPS, VMAXPS, VBLENDVPS, X6, X9, X4, X11, X10)
	POOLCAND(VCMPPS, VMAXPS, VBLENDVPS, X7, X8, X4, X11, X10)
	VMOVUPS X4, (DI)(CX*4)
	TESTQ   R8, R8
	JZ      pool32next
	VMOVDQU X11, (R8)(CX*4)

pool32next:
	LEAQ (SI)(R12*2), SI
	ADDQ R13, DI
	LEAQ (R11)(R9*2), R11
	TESTQ R8, R8
	JZ   pool32noarg
	ADDQ R13, R8

pool32noarg:
	DECQ BX
	JNZ  pool32row
	VZEROUPPER
	RET

// func maxPool64AVX2(out *float64, arg *int32, in *float64, orows, w, cols int)
//
// Four outputs a step from eight doubles of each row, split by VUNPCK{L,H}PD;
// the indices ride in 64-bit lanes beside the values and are narrowed to the
// int32 argmax by the VPERMD that also restores output order. Then two outputs
// in XMM registers.
TEXT ·maxPool64AVX2(SB), NOSPLIT, $0-48
	MOVQ out+0(FP), DI
	MOVQ arg+8(FP), R8
	MOVQ in+16(FP), SI
	MOVQ orows+24(FP), BX
	MOVQ w+32(FP), R9
	MOVQ cols+40(FP), R10
	VMOVDQU  poolidx64<>(SB), Y12
	VMOVDQU  poolhalf64<>(SB), X13
	VPCMPEQQ Y14, Y14, Y14
	VPSRLQ   $63, Y14, Y14 // 1 in every lane
	MOVQ     R9, AX
	VMOVQ    AX, X15
	VPBROADCASTQ X15, Y15  // w in every lane
	XORQ R11, R11          // flat index of the row pair's first element
	LEAQ (R9*8), R12       // bytes per input row
	LEAQ (R9*4), R13       // bytes per output row
	LEAQ (R9*2), R15       // bytes per index row

pool64row:
	LEAQ (SI)(R12*1), DX   // the bottom row
	XORQ CX, CX            // output column

pool64y:
	LEAQ 4(CX), AX
	CMPQ AX, R10
	JGT  pool64x
	LEAQ (CX*2), AX       // input column
	VMOVUPD (SI)(AX*8), Y0
	VMOVUPD 32(SI)(AX*8), Y1
	VMOVUPD (DX)(AX*8), Y2
	VMOVUPD 32(DX)(AX*8), Y3
	VUNPCKLPD Y1, Y0, Y4 // top-left
	VUNPCKHPD Y1, Y0, Y5 // top-right
	VUNPCKLPD Y3, Y2, Y6 // bottom-left
	VUNPCKHPD Y3, Y2, Y7 // bottom-right
	ADDQ    R11, AX
	VMOVQ   AX, X8
	VPBROADCASTQ X8, Y8
	VPADDQ  Y12, Y8, Y11
	VPADDQ  Y14, Y11, Y8
	POOLCAND(VCMPPD, VMAXPD, VBLENDVPD, Y5, Y8, Y4, Y11, Y10)
	VPADDQ  Y15, Y8, Y8
	VPSUBQ  Y14, Y8, Y9
	POOLCAND(VCMPPD, VMAXPD, VBLENDVPD, Y6, Y9, Y4, Y11, Y10)
	POOLCAND(VCMPPD, VMAXPD, VBLENDVPD, Y7, Y8, Y4, Y11, Y10)
	VPERMPD $0xD8, Y4, Y4
	VMOVUPD Y4, (DI)(CX*8)
	TESTQ   R8, R8
	JZ      pool64ynext
	VMOVDQU poolnarrow64<>(SB), Y9
	VPERMD  Y11, Y9, Y11
	VMOVDQU X11, (R8)(CX*4)

pool64ynext:
	ADDQ $4, CX
	JMP  pool64y

pool64x:
	CMPQ CX, R10
	JGE  pool64next
	LEAQ (CX*2), AX
	VMOVUPD (SI)(AX*8), X0
	VMOVUPD 16(SI)(AX*8), X1
	VMOVUPD (DX)(AX*8), X2
	VMOVUPD 16(DX)(AX*8), X3
	VUNPCKLPD X1, X0, X4
	VUNPCKHPD X1, X0, X5
	VUNPCKLPD X3, X2, X6
	VUNPCKHPD X3, X2, X7
	ADDQ    R11, AX
	VMOVQ   AX, X8
	VPBROADCASTQ X8, X8
	VPADDQ  X13, X8, X11
	VPADDQ  X14, X11, X8
	POOLCAND(VCMPPD, VMAXPD, VBLENDVPD, X5, X8, X4, X11, X10)
	VPADDQ  X15, X8, X8
	VPSUBQ  X14, X8, X9
	POOLCAND(VCMPPD, VMAXPD, VBLENDVPD, X6, X9, X4, X11, X10)
	POOLCAND(VCMPPD, VMAXPD, VBLENDVPD, X7, X8, X4, X11, X10)
	VMOVUPD X4, (DI)(CX*8)
	TESTQ   R8, R8
	JZ      pool64next
	VPSHUFD $0xE8, X11, X11 // the two low halves, adjacent
	VMOVQ   X11, (R8)(CX*4)

pool64next:
	LEAQ (SI)(R12*2), SI
	ADDQ R13, DI
	LEAQ (R11)(R9*2), R11
	TESTQ R8, R8
	JZ   pool64noarg
	ADDQ R15, R8

pool64noarg:
	DECQ BX
	JNZ  pool64row
	VZEROUPPER
	RET

// lanemask holds eight set dwords and then eight clear ones: the VMASKMOVPS
// mask of a row's r last lanes starts 4·r bytes, the VMASKMOVPD mask 8·r
// bytes, before the middle.
DATA lanemask<>+0(SB)/8, $0xffffffffffffffff
DATA lanemask<>+8(SB)/8, $0xffffffffffffffff
DATA lanemask<>+16(SB)/8, $0xffffffffffffffff
DATA lanemask<>+24(SB)/8, $0xffffffffffffffff
DATA lanemask<>+32(SB)/8, $0
DATA lanemask<>+40(SB)/8, $0
DATA lanemask<>+48(SB)/8, $0
DATA lanemask<>+56(SB)/8, $0
GLOBL lanemask<>(SB), RODATA|NOPTR, $64

// func addRows32AVX2(dst, src *float32, rows, n, dstStride, srcStride int)
TEXT ·addRows32AVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ rows+16(FP), BX
	MOVQ n+24(FP), CX
	MOVQ dstStride+32(FP), R8
	MOVQ srcStride+40(FP), R9
	SHLQ $2, R8
	SHLQ $2, R9
	MOVQ CX, DX
	ANDQ $7, DX           // lanes of the masked step; none when zero
	MOVQ DX, R10
	NEGQ R10
	LEAQ lanemask<>(SB), AX
	VMOVDQU 32(AX)(R10*4), Y2
	ANDQ $-8, CX
	SHLQ $2, CX           // bytes of a row the whole registers cover

addrows32row:
	XORQ AX, AX

addrows32full:
	CMPQ AX, CX
	JGE  addrows32tail
	VMOVUPS (DI)(AX*1), Y0
	VADDPS  (SI)(AX*1), Y0, Y0
	VMOVUPS Y0, (DI)(AX*1)
	ADDQ    $32, AX
	JMP     addrows32full

addrows32tail:
	TESTQ DX, DX
	JZ    addrows32next
	VMASKMOVPS (DI)(AX*1), Y2, Y0
	VMASKMOVPS (SI)(AX*1), Y2, Y1
	VADDPS     Y1, Y0, Y0
	VMASKMOVPS Y0, Y2, (DI)(AX*1)

addrows32next:
	ADDQ R8, DI
	ADDQ R9, SI
	DECQ BX
	JNZ  addrows32row
	VZEROUPPER
	RET

// func addRows64AVX2(dst, src *float64, rows, n, dstStride, srcStride int)
TEXT ·addRows64AVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ rows+16(FP), BX
	MOVQ n+24(FP), CX
	MOVQ dstStride+32(FP), R8
	MOVQ srcStride+40(FP), R9
	SHLQ $3, R8
	SHLQ $3, R9
	MOVQ CX, DX
	ANDQ $3, DX           // lanes of the masked step; none when zero
	MOVQ DX, R10
	NEGQ R10
	LEAQ lanemask<>(SB), AX
	VMOVDQU 32(AX)(R10*8), Y2
	ANDQ $-4, CX
	SHLQ $3, CX           // bytes of a row the whole registers cover

addrows64row:
	XORQ AX, AX

addrows64full:
	CMPQ AX, CX
	JGE  addrows64tail
	VMOVUPD (DI)(AX*1), Y0
	VADDPD  (SI)(AX*1), Y0, Y0
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ    $32, AX
	JMP     addrows64full

addrows64tail:
	TESTQ DX, DX
	JZ    addrows64next
	VMASKMOVPD (DI)(AX*1), Y2, Y0
	VMASKMOVPD (SI)(AX*1), Y2, Y1
	VADDPD     Y1, Y0, Y0
	VMASKMOVPD Y0, Y2, (DI)(AX*1)

addrows64next:
	ADDQ R8, DI
	ADDQ R9, SI
	DECQ BX
	JNZ  addrows64row
	VZEROUPPER
	RET

// func masterUpdateAVX2(m *float64, p, grad *float32, lr float64, n int) float64
//
// Four gradients a step are widened, squared, scaled and applied as vectors;
// the squares then join the norm one lane at a time, lowest first, so the sum
// is the single ascending chain of the Go loop.
TEXT ·masterUpdateAVX2(SB), NOSPLIT, $0-48
	MOVQ m+0(FP), DI
	MOVQ p+8(FP), R8
	MOVQ grad+16(FP), SI
	VBROADCASTSD lr+24(FP), Y7
	MOVQ n+32(FP), CX
	VXORPD X5, X5, X5
	XORQ AX, AX

master:
	VCVTPS2PD  (SI)(AX*4), Y0
	VMULPD     Y0, Y0, Y1   // f·f
	VMULPD     Y0, Y7, Y2   // lr·f
	VMOVUPD    (DI)(AX*8), Y3
	VSUBPD     Y2, Y3, Y3
	VMOVUPD    Y3, (DI)(AX*8)
	VCVTPD2PSY Y3, X4
	VMOVUPS    X4, (R8)(AX*4)
	VADDSD     X1, X5, X5
	VPERMILPD  $1, X1, X6
	VADDSD     X6, X5, X5
	VEXTRACTF128 $1, Y1, X6
	VADDSD     X6, X5, X5
	VPERMILPD  $1, X6, X6
	VADDSD     X6, X5, X5
	ADDQ       $4, AX
	CMPQ       AX, CX
	JLT        master
	VMOVSD X5, ret+40(FP)
	VZEROUPPER
	RET
