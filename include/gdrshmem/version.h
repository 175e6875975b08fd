// Version macros for the installed gdrshmem headers.
//
// GDRSHMEM_API_VERSION bumps whenever the installed surface changes shape
// (it is NOT the package version). The SHMEM_{MAJOR,MINOR}_VERSION pair
// reports the OpenSHMEM specification level the spellings follow, as the
// spec requires of shmem.h.
#pragma once

#define GDRSHMEM_API_VERSION_MAJOR 3
#define GDRSHMEM_API_VERSION_MINOR 0

#define SHMEM_MAJOR_VERSION 1
#define SHMEM_MINOR_VERSION 4
#define SHMEM_VENDOR_STRING "gdrshmem (simulated, Hamidouche et al. CLUSTER'15)"
